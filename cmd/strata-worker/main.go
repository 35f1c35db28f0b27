// Command strata-worker runs the consumer half of a pipeline split across OS
// processes: a checkpointed detect→correlate pipeline whose input is pulled
// from a remote log (served by its owner with pubsub.ServeLog, reached
// through a strata-broker) and whose results are committed effectively-once
// into a local key-value store.
//
// It is the process the e2e chaos harness kills, partitions, and corrupts:
// restarted against the same -store directory it restores the newest
// checkpoint, resumes the remote pull from the checkpointed offset, and
// re-suppresses effects already committed — so the dump it writes when the
// bounded replay completes is byte-identical to a run that saw no faults.
//
//	strata-worker -broker 127.0.0.1:4222 -store /tmp/w1 \
//	    -subject strata.raw.e2e.j -total 40 -dump /tmp/w1.dump \
//	    -metrics-addr 127.0.0.1:0
//
// Stdout speaks a line protocol the harness gates on:
//
//	METRICS <addr>   telemetry endpoint is serving (when -metrics-addr is set)
//	READY            pipeline deployed, broker link live (subscription applied)
//	DONE <sha256>    bounded replay finished; dump written, hash of its bytes
//
// After DONE the process stays up (metrics and trace fragments remain
// scrapeable) until its stdin closes or it receives SIGTERM/SIGINT.
//
// The STRATA_WORKER_CRASH environment variable arms a crashpoint of the form
// "detect.layer.<n>[:hits]": the detect stage dies hard — flight-recorder
// dump, exit code 3 — when it sees layer n for the hits-th time. The harness
// removes the variable from the restarted incarnation's environment, so the
// crash injects exactly one process death per arm.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"strata/internal/core"
	"strata/internal/faultinject"
	"strata/internal/kvstore"
	"strata/internal/obslog"
	"strata/internal/pubsub"
	"strata/internal/telemetry"
)

// crashEnv arms a hard process crash at a detect-stage crashpoint.
const crashEnv = "STRATA_WORKER_CRASH"

// controlSubject is the worker's standing broker subscription. The remote
// pull protocol uses short-lived inbox subscriptions, so this durable one is
// what makes ActiveSubscriptions a truthful liveness signal for /readyz.
const controlSubject = "strata.e2e.control"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "strata-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	brokerAddr := flag.String("broker", "", "strata-broker address to pull input through (required)")
	storeDir := flag.String("store", "", "key-value store directory; reuse across restarts to recover (required)")
	subject := flag.String("subject", "strata.raw.e2e.j", "remote log subject to replay")
	total := flag.Int("total", 0, "stop after the record at offset total-1 (required, > 0)")
	window := flag.Int("window", 3, "correlate window length L")
	pipeline := flag.String("pipeline", "e2e", "pipeline (and checkpoint) name")
	ckptEvery := flag.Duration("ckpt-every", 25*time.Millisecond, "checkpoint interval")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /healthz, /readyz, and /debug/trace on this address (empty disables)")
	resultsSubject := flag.String("results-subject", "",
		"also publish each result tuple to the broker under this subject (traced; empty disables)")
	dumpPath := flag.String("dump", "", "write the durable sink's effects here on completion (empty: stdout hash only)")
	traceEvery := flag.Int("trace-every", 1, "sample a trace every n source tuples (<= 0 disables)")
	applyLog := obslog.Flags(flag.CommandLine)
	flag.Parse()
	if err := applyLog(); err != nil {
		return err
	}
	if *brokerAddr == "" || *storeDir == "" || *total <= 0 {
		return errors.New("-broker, -store, and -total are required")
	}
	defer obslog.InstallSignalDump()()
	log := obslog.L("worker")

	cps := faultinject.NewCrashpoints()
	if arm := os.Getenv(crashEnv); arm != "" {
		point, hits, err := parseCrashArm(arm)
		if err != nil {
			return err
		}
		cps.Arm(point, hits, errors.New("armed crashpoint "+point))
		log.Warn("crashpoint armed", "point", point, "hits", strconv.Itoa(hits))
	}

	rc, err := pubsub.DialReconnect(*brokerAddr,
		pubsub.WithReconnectWait(10*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		return err
	}
	defer rc.Close()
	ctl, err := rc.Subscribe(controlSubject)
	if err != nil {
		return err
	}
	defer ctl.Unsubscribe()

	// The manager needs an in-process broker for connector taps; it never
	// leaves this process. The remote broker is only reachable through rc.
	local := pubsub.NewBroker()
	defer local.Close()
	mgr, err := core.NewManager(*storeDir, local,
		core.WithDefaultTraceSampling(*traceEvery))
	if err != nil {
		return err
	}
	defer mgr.Close()

	build := func(fw *core.Framework) error {
		src := fw.AddRemoteReplaySource("raw", rc, *subject, *total)
		det := fw.DetectEvent("det", src, func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
			if err := cps.Hit(fmt.Sprintf("detect.layer.%d", t.Layer)); err != nil {
				// A crashpoint is a process death, not a pipeline error: no
				// deferred cleanup, no checkpoint, no graceful drain — the
				// flight recorder is the only evidence left behind.
				obslog.Crash(err.Error())
				os.Exit(3)
			}
			p, _ := t.KV["power"].(float64)
			return emit(&core.EventTuple{KV: map[string]any{"score": p * 10}})
		})
		cor := fw.CorrelateEvents("cor", det, *window, func(w core.CorrelateWindow, emit func(core.EventTuple) error) error {
			sum := 0.0
			for _, e := range w.Events {
				s, _ := e.KV["score"].(float64)
				sum += s
			}
			return emit(core.EventTuple{KV: map[string]any{"sum": sum}})
		})
		out := cor
		if *resultsSubject != "" {
			refs := fw.Share(cor, 2)
			out = refs[0]
			fw.DeliverToConn("results", refs[1], rc, func(string) string { return *resultsSubject })
		}
		fw.DeliverDurable("out", out, func(seq uint64, t core.EventTuple, b *kvstore.Batch) error {
			sum, _ := t.KV["sum"].(float64)
			var buf [16]byte
			binary.BigEndian.PutUint64(buf[:8], uint64(t.Layer))
			binary.BigEndian.PutUint64(buf[8:], uint64(sum))
			b.Put(fmt.Appendf(nil, "out/%016x", seq), buf[:])
			return nil
		})
		return nil
	}

	p, err := mgr.Deploy(*pipeline, build,
		core.WithCheckpointInterval(*ckptEvery),
		core.WithRestartPolicy(core.RestartOnFailure),
		core.WithRestartBackoff(10*time.Millisecond))
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		reg.Register(mgr)
		reg.Register(obslog.Recorder())
		reg.Register(telemetry.GoRuntime{})
		traceFind := func(id string) []telemetry.TraceSnapshot {
			// Look through the pipeline handle, not the manager: fragments
			// must stay scrapeable after the bounded replay completes and
			// the pipeline retires.
			return p.Framework().Traces().Find(id)
		}
		ms, err := telemetry.Serve(*metricsAddr, telemetry.NewHandler(reg,
			telemetry.WithTraces(func() []telemetry.TraceSnapshot {
				return p.Framework().Traces().Slowest(0)
			}),
			telemetry.WithTraceLookup(traceFind),
			telemetry.WithPipelines(mgr.DebugPipelines),
			telemetry.WithReadiness(func() error {
				if rc.ActiveSubscriptions() == 0 {
					return errors.New("broker link down: no live subscriptions")
				}
				in, err := mgr.Status(*pipeline)
				if err != nil {
					return err
				}
				if in.Status == core.StatusRunning || in.Status == core.StatusCompleted {
					return nil
				}
				return fmt.Errorf("pipeline %s", in.Status)
			}),
		))
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("METRICS %s\n", ms.Addr())
	}

	// READY once the broker applied the control subscription: the link is up
	// and the pipeline is deployed, so faults injected from here on land on a
	// live worker.
	for start := time.Now(); rc.ActiveSubscriptions() == 0; {
		if time.Since(start) > 30*time.Second {
			return errors.New("broker link never came up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := rc.Ping(10 * time.Second); err != nil {
		return fmt.Errorf("readiness ping: %w", err)
	}
	fmt.Printf("READY\n")
	log.Info("ready", "broker", *brokerAddr, "subject", *subject, "total", strconv.Itoa(*total))

	if err := p.Wait(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	sum, err := dumpEffects(mgr.Store(), *dumpPath)
	if err != nil {
		return err
	}
	fmt.Printf("DONE %s\n", sum)
	log.Info("done", "sha256", sum)

	// Stay up for artifact collection; the harness closes stdin (or signals)
	// when it has scraped what it needs.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stdinDone := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stdinDone)
	}()
	select {
	case <-sig:
	case <-stdinDone:
	}
	return nil
}

// dumpEffects writes every durable-sink effect ("out/" key) in key order as
// "<key> <hex value>" lines — a canonical text form of the store's observable
// effects — to path (when non-empty) and returns the sha256 of those bytes.
// Two runs committed the same effects if and only if their dumps hash alike.
func dumpEffects(db *kvstore.DB, path string) (string, error) {
	var buf []byte
	err := db.ScanPrefix([]byte("out/"), func(k, v []byte) bool {
		buf = append(buf, k...)
		buf = append(buf, ' ')
		buf = appendHex(buf, v)
		buf = append(buf, '\n')
		return true
	})
	if err != nil {
		return "", err
	}
	if path != "" {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf)), nil
}

func appendHex(dst, src []byte) []byte {
	const digits = "0123456789abcdef"
	for _, b := range src {
		dst = append(dst, digits[b>>4], digits[b&0xf])
	}
	return dst
}

// parseCrashArm parses "point[:hits]" (hits defaults to 1).
func parseCrashArm(s string) (point string, hits int, err error) {
	point, rest, found := strings.Cut(s, ":")
	hits = 1
	if found {
		hits, err = strconv.Atoi(rest)
		if err != nil || hits < 1 {
			return "", 0, fmt.Errorf("bad %s %q: hits must be a positive integer", crashEnv, s)
		}
	}
	if point == "" {
		return "", 0, fmt.Errorf("bad %s %q: empty crashpoint", crashEnv, s)
	}
	return point, hits, nil
}
