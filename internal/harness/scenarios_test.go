// Chaos scenarios: each test spawns a real strata-broker and strata-worker
// as OS processes, routes the worker↔broker link through a fault-injecting
// proxy, injects one class of fault while a bounded replay is in flight,
// and then asserts the worker's durable sink holds EXACTLY the effects of a
// fault-free run — byte-identical dump, equal sha256 — proving the
// effectively-once contract end to end across process death, broker death,
// partitions, wire corruption, and overload eviction.
//
// The expected output is computed in closed form (expectedDump): layer l
// scores 10·l, the window-3 correlation sums the last three scores, and the
// durable sink keys results by sequence (== layer). The baseline scenario
// pins the computation to a real fault-free run; every fault scenario then
// compares against the same bytes.
package harness_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"strata/internal/core"
	"strata/internal/faultinject"
	"strata/internal/harness"
	"strata/internal/pubsub"
	"strata/internal/telemetry"
)

const (
	e2eWindow  = 3 // correlate window L (worker -window default)
	e2eSubject = "strata.raw.e2e.j"
)

// rig is the shared scenario fixture: a broker process, a local raw log
// served into it by a direct (unfaulted) feeder connection, a proxy for the
// worker's link, and the worker process itself.
type rig struct {
	t *testing.T
	f harness.Framework

	brokerAddr    string
	brokerMetrics string
	broker        *harness.Proc

	proxy  *faultinject.Proxy
	store  *pubsub.LogStore
	feeder *pubsub.ReconnectConn

	worker        *harness.Proc
	workerMetrics string

	storeDir string
	dumpPath string
	total    int
}

// newRig starts the broker, the raw-log feeder, and the proxy — everything
// but the worker, so scenarios can pre-load input or arm faults first.
func newRig(t *testing.T, total int, brokerArgs ...string) *rig {
	t.Helper()
	if testing.Short() {
		t.Skip("e2e scenario: spawns real processes; skipped in -short")
	}
	f := harness.New(t)
	r := &rig{t: t, f: f, total: total}

	r.brokerAddr = f.Port()
	r.brokerMetrics = f.Port()
	r.broker = f.Start(harness.ProcSpec{
		Name: "broker",
		Path: f.Bin("strata-broker"),
		Args: append([]string{
			"-addr", r.brokerAddr,
			"-metrics-addr", r.brokerMetrics,
		}, brokerArgs...),
	})
	f.WaitReady(r.brokerMetrics, 15*time.Second)
	f.RegisterEndpoint("broker", r.brokerMetrics)

	store, err := pubsub.OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The feeder dials the broker directly — faults land only on the
	// worker's proxied link, never on the input's serving side.
	feeder, err := pubsub.DialReconnect(r.brokerAddr,
		pubsub.WithReconnectWait(10*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pubsub.ServeLog(feeder, store, e2eSubject)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		feeder.Close()
		store.Close()
	})
	r.store, r.feeder = store, feeder

	r.proxy = f.Proxy(r.brokerAddr)
	r.storeDir = filepath.Join(t.TempDir(), "worker-store")
	r.dumpPath = filepath.Join(f.ArtifactDir(), "effects.dump")
	return r
}

// append records layers [from, to] on the raw log, mirroring the in-process
// chaos rig's deterministic input.
func (r *rig) append(from, to int) {
	r.t.Helper()
	base := time.UnixMicro(1_000_000)
	for l := from; l <= to; l++ {
		data, err := core.EncodeTuple(core.EventTuple{
			TS:    base.Add(time.Duration(l) * time.Second),
			Job:   "j",
			Layer: l,
			KV:    map[string]any{"power": float64(l)},
		})
		if err != nil {
			r.t.Fatal(err)
		}
		if _, err := r.store.Append(e2eSubject, data); err != nil {
			r.t.Fatal(err)
		}
	}
}

// startWorker spawns the worker against the proxied broker address. Extra
// env entries (e.g. a crashpoint arm) ride along.
func (r *rig) startWorker(env ...string) {
	r.t.Helper()
	r.worker = r.f.Start(harness.ProcSpec{
		Name: "worker",
		Path: r.f.Bin("strata-worker"),
		Args: []string{
			"-broker", r.proxy.Addr(),
			"-store", r.storeDir,
			"-subject", e2eSubject,
			"-total", strconv.Itoa(r.total),
			"-window", strconv.Itoa(e2eWindow),
			"-dump", r.dumpPath,
			"-metrics-addr", "127.0.0.1:0",
			"-results-subject", "strata.e2e.results.j",
			"-ckpt-every", "10ms",
		},
		Env: env,
	})
	r.awaitWorkerUp()
}

// awaitWorkerUp gates on the worker's line protocol and readiness probe —
// faults injected before this point would land on a half-started process.
func (r *rig) awaitWorkerUp() {
	r.t.Helper()
	r.workerMetrics = r.worker.Expect("METRICS", 30*time.Second)
	r.worker.Expect("READY", 30*time.Second)
	r.f.RegisterEndpoint("worker", r.workerMetrics)
	r.f.WaitReady(r.workerMetrics, 15*time.Second)
}

// waitCheckpointed blocks until the worker has taken at least n checkpoints,
// so a subsequent fault provably lands after recoverable state exists.
func (r *rig) waitCheckpointed(n float64) {
	r.t.Helper()
	r.f.WaitMetric(r.workerMetrics, "strata_ckpt_total", 20*time.Second,
		func(v float64) bool { return v >= n })
}

// expectedDump is the fault-free run's canonical effect dump: for each
// result sequence (== layer) l in [1, total], the key out/<seq> maps to the
// 16-byte big-endian (layer, windowed score sum) pair the worker commits.
func expectedDump(total int) []byte {
	var buf []byte
	for l := 1; l <= total; l++ {
		sum := 0.0
		for x := l - e2eWindow + 1; x <= l; x++ {
			if x >= 1 {
				sum += float64(x) * 10
			}
		}
		var v [16]byte
		putU64 := func(b []byte, u uint64) {
			for i := 7; i >= 0; i-- {
				b[i] = byte(u)
				u >>= 8
			}
		}
		putU64(v[:8], uint64(l))
		putU64(v[8:], uint64(sum))
		buf = fmt.Appendf(buf, "out/%016x %x\n", uint64(l), v[:])
	}
	return buf
}

// verifyDone waits for the worker's DONE line and asserts both the reported
// hash and the on-disk dump are byte-identical to the fault-free
// expectation — the effectively-once claim, end to end.
func (r *rig) verifyDone(timeout time.Duration) {
	r.t.Helper()
	want := expectedDump(r.total)
	wantSum := fmt.Sprintf("%x", sha256.Sum256(want))
	got := r.worker.Expect("DONE", timeout)
	if got != wantSum {
		r.t.Fatalf("worker DONE hash %s, fault-free expectation %s", got, wantSum)
	}
	onDisk, err := os.ReadFile(r.dumpPath)
	if err != nil {
		r.t.Fatalf("read effect dump: %v", err)
	}
	if !bytes.Equal(onDisk, want) {
		r.t.Fatalf("effect dump diverges from fault-free run:\n got %d bytes\nwant %d bytes",
			len(onDisk), len(want))
	}
}

var e2eHTTP = &http.Client{Timeout: 5 * time.Second}

// workerTraceIDs lists the distinct cross-process trace IDs the worker's
// trace buffer currently holds.
func (r *rig) workerTraceIDs() []string {
	resp, err := e2eHTTP.Get("http://" + r.workerMetrics + "/debug/traces?n=64")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var rep struct {
		Traces []telemetry.TraceSnapshot `json:"traces"`
	}
	if json.NewDecoder(resp.Body).Decode(&rep) != nil {
		return nil
	}
	var ids []string
	seen := make(map[string]bool)
	for _, tr := range rep.Traces {
		if tr.TraceID != "" && !seen[tr.TraceID] {
			seen[tr.TraceID] = true
			ids = append(ids, tr.TraceID)
		}
	}
	return ids
}

// assertCrossProcessTrace merges one trace's fragments from the worker's
// and the broker's /debug/trace endpoints and asserts the merged timeline
// spans two distinct OS processes — proof the data path (and, after a
// restart, the recovery) crossed process boundaries.
func (r *rig) assertCrossProcessTrace() {
	r.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, id := range r.workerTraceIDs() {
			wf := r.f.Fragments(r.workerMetrics, id)
			bf := r.f.Fragments(r.brokerMetrics, id)
			if len(wf) == 0 || len(bf) == 0 {
				continue
			}
			m := telemetry.MergeFragments(append(wf, bf...))
			pids := make(map[int]bool)
			brokerHop := false
			for _, fr := range m.Fragments {
				pids[fr.PID] = true
				if strings.HasPrefix(fr.Label, "broker/") {
					brokerHop = true
				}
			}
			if len(m.Processes) < 2 || len(pids) < 2 || !brokerHop {
				continue
			}
			r.t.Logf("trace %s merged across %v", id, m.Processes)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	r.t.Fatal("no trace merged across worker and broker process boundaries")
}

// TestE2EBaselineFaultFree pins expectedDump to reality: a run that sees no
// faults must produce exactly the bytes every fault scenario compares
// against, and its traces must already merge across the two processes.
func TestE2EBaselineFaultFree(t *testing.T) {
	r := newRig(t, 40)
	r.append(1, 40)
	r.startWorker()
	r.verifyDone(60 * time.Second)
	r.assertCrossProcessTrace()
}

// TestE2EKillWorkerMidEpoch SIGKILLs the worker after it has checkpointed
// mid-stream — no drain, no final checkpoint — restarts it against the same
// store, and proves the restored run re-suppresses every already-committed
// effect while the merged trace shows the post-restart data path crossing
// into the broker process.
func TestE2EKillWorkerMidEpoch(t *testing.T) {
	r := newRig(t, 40)
	r.append(1, 20) // half the input: the kill provably lands mid-stream
	r.startWorker()
	r.waitCheckpointed(2)

	r.worker.Kill()
	r.worker = r.worker.Restart()
	r.awaitWorkerUp()

	r.append(21, 40)
	r.verifyDone(60 * time.Second)
	r.assertCrossProcessTrace()
}

// TestE2EKillBrokerUnderLoad SIGKILLs the broker mid-replay and restarts it
// on the same address. The feeder's durable subscription re-applies, the
// worker redials through the proxy (which dials its fixed target afresh per
// connection), and the replay converges to the fault-free bytes.
func TestE2EKillBrokerUnderLoad(t *testing.T) {
	r := newRig(t, 40)
	r.append(1, 20)
	r.startWorker()
	r.waitCheckpointed(1)

	r.broker.Kill()
	r.append(21, 40) // producer keeps writing locally while the broker is down
	r.broker = r.broker.Restart()
	r.f.WaitReady(r.brokerMetrics, 15*time.Second)

	r.verifyDone(90 * time.Second)
}

// TestE2EPartitionDuringCheckpoint blackholes the worker↔broker link (both
// directions, silently — no FIN, no RST) after a checkpoint exists. The
// worker must survive the partition; once the proxy heals, in-flight
// fetches retry at the same offset and the output is unchanged.
func TestE2EPartitionDuringCheckpoint(t *testing.T) {
	r := newRig(t, 40)
	r.append(1, 20)
	r.startWorker()
	r.waitCheckpointed(1)

	r.proxy.Blackhole()
	time.Sleep(400 * time.Millisecond) // several fetch attempts vanish
	if r.worker.Exited() {
		t.Fatal("worker died during the partition")
	}
	r.proxy.Heal() // closes the tainted connections; the worker redials clean

	r.append(21, 40)
	r.verifyDone(90 * time.Second)
}

// TestE2ECorruptWireThenRedial drops 64 bytes from the live link mid-frame,
// desynchronizing the wire protocol. Whichever side detects the garbage
// closes the connection; the worker redials and the offset-addressed
// cursor re-fetches exactly what was lost — effects unchanged.
func TestE2ECorruptWireThenRedial(t *testing.T) {
	r := newRig(t, 40)
	r.append(1, 20)
	r.startWorker()
	r.waitCheckpointed(1)

	r.proxy.DropBytes(64)

	r.append(21, 40)
	r.verifyDone(90 * time.Second)
}

// TestE2ESlowConsumerEviction wedges an unrelated subscriber (a client whose
// subscription is never read) and floods its subject until the broker's
// slow-consumer timeout evicts it, then proves the worker's replay was
// untouched by the overload response.
func TestE2ESlowConsumerEviction(t *testing.T) {
	r := newRig(t, 40, "-slow-consumer-timeout", "75ms")
	r.append(1, 20)
	r.startWorker()

	wedged, err := pubsub.DialReconnect(r.brokerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	// Tiny client buffer, never read: the client's read loop parks on it, and
	// TCP back-pressure propagates to the broker's forwarding goroutine,
	// which stalls past the eviction timeout.
	if _, err := wedged.Subscribe("strata.e2e.flood", pubsub.WithSubBuffer(1)); err != nil {
		t.Fatal(err)
	}
	flooder, err := pubsub.DialReconnect(r.brokerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer flooder.Close()

	payload := bytes.Repeat([]byte{0xEE}, 1024)
	for i := 0; i < 8000; i++ {
		if err := flooder.Publish("strata.e2e.flood", payload); err != nil {
			break
		}
		if i%500 == 499 {
			if v, err := r.f.MetricValue(r.brokerMetrics,
				"strata_pubsub_slow_consumers_evicted_total"); err == nil && v >= 1 {
				break
			}
		}
	}
	r.f.WaitMetric(r.brokerMetrics, "strata_pubsub_slow_consumers_evicted_total",
		20*time.Second, func(v float64) bool { return v >= 1 })

	r.append(21, 40)
	r.verifyDone(90 * time.Second)
}

// TestE2ECrashpointExitsAndRecovers arms a crashpoint in the worker's
// detect stage: the process dies hard with exit code 3 and a flight-recorder
// dump when it sees layer 12. The restart sheds the crash environment and
// the recovered run converges to the fault-free bytes.
func TestE2ECrashpointExitsAndRecovers(t *testing.T) {
	r := newRig(t, 30)
	r.append(1, 8) // the armed layer is not yet on the log: READY gates cleanly
	r.startWorker("STRATA_WORKER_CRASH=detect.layer.12")

	r.append(9, 30)
	err := r.worker.Wait(30 * time.Second)
	if code := exitCode(err); code != 3 {
		t.Fatalf("worker exit: %v (code %d), want crashpoint code 3", err, code)
	}
	dumps, _ := filepath.Glob(filepath.Join(r.f.ArtifactDir(), "worker-flightrec", "flightrec-*.json"))
	if len(dumps) == 0 {
		t.Fatal("crashed worker left no flight-recorder dump")
	}

	r.worker = r.worker.Restart("STRATA_WORKER_CRASH")
	r.awaitWorkerUp()
	r.verifyDone(60 * time.Second)
}

func exitCode(err error) int {
	type coder interface{ ExitCode() int }
	if c, ok := err.(coder); ok {
		return c.ExitCode()
	}
	return -1
}
