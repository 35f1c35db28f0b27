package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
	"strata/internal/pubsub"
)

// The worker role is the detection half of the cross-process workloads:
// core.Manager.Deploy of bench.BuildPipeline, fed through the broker,
// committing verdicts to its own synced store. The driver steers it over a
// line protocol:
//
//	stdout  SUBSCRIBED  input subscriptions are live (live_xproc)
//	        READY       calibrated and deployed
//	        WARM        the warm-up layers are committed (replay_xproc)
//	        BEGUN/ENDED a measured window opened/closed
//	        DONE        stopped; worker-report.json is written
//	stdin   warm <layers> | begin <ms> [trace] | end | EOF
//
// On replay_xproc the worker is the closed loop and ends the window itself
// after whole passes; on live_xproc the driver is the load and sends end.
const workerReportFile = "worker-report.json"

// workerExtras are the numbers of a run that belong to no single window.
// The worker fills in its own; the driver adds its side's reconnects and
// publish errors.
type workerExtras struct {
	CkptPauseMS   []float64 `json:"ckpt_pause_ms"`
	CkptBytes     float64   `json:"ckpt_bytes"`
	Reconnects    uint64    `json:"reconnects"`
	PublishErrors int64     `json:"publish_errors"`
}

// workerReport is what the worker leaves behind for the driver.
type workerReport struct {
	Windows   []hostReport   `json:"windows"`
	Attempted map[string]int `json:"attempted,omitempty"`
	Spans     []span         `json:"spans,omitempty"`
	Extras    workerExtras   `json:"extras"`
}

func runWorker(o options) error {
	if o.broker == "" || o.dir == "" {
		return errors.New("worker role needs -broker and -dir")
	}
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	sc, err := scaleByName(o.scale)
	if err != nil {
		return err
	}
	p := makePlan(wl, sc, o.seconds)
	rc, err := pubsub.DialReconnect(o.broker)
	if err != nil {
		return err
	}
	defer rc.Close()

	w := &worker{p: p, rc: rc, h: newHost(p, &spanLog{}), dir: o.dir}
	if err := w.deploy(o.trace == 1); err != nil {
		_ = w.h.close()
		return err
	}
	fmt.Println("READY")
	err = w.serve(bufio.NewScanner(os.Stdin))
	if cerr := w.h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := w.writeReport(); err != nil {
		return err
	}
	fmt.Println("DONE")
	return nil
}

type worker struct {
	p      plan
	rc     *pubsub.ReconnectConn
	h      *host
	dir    string
	replay *replayFeed

	windows []hostReport
	begin   counters

	publishErrs atomic.Int64
	probeCkpt   bool
	ckptPauseMS []float64
	ckptBytes   float64
}

// deploy calibrates from the first recorded or published layers and
// deploys the pipeline. Checkpointing is only enabled (with an interval
// that never fires) when the run will probe one checkpoint itself.
func (w *worker) deploy(traced bool) error {
	feed, calib, err := w.calibrate()
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	var every time.Duration
	if w.probeCkpt = traced && w.p.ckptProbe; w.probeCkpt {
		every = 24 * time.Hour
	}
	return w.h.startManaged(w.dir, calib, feed, every)
}

// calibrate builds the workload's feed and takes the historical layers the
// classification reference is computed from off it.
func (w *worker) calibrate() (bench.Feed, []amsim.LayerData, error) {
	mmpp := w.p.layout.MMPerPixel()
	if w.p.replay {
		w.replay = newReplayFeed(w.rc, mmpp, w.p.ring, w.h)
		w.h.layerDone = func(string) { w.replay.pace.done() }
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		calib, err := w.replay.calibration(ctx, calibLayers)
		return w.replay, calib, err
	}
	live, err := subscribeLive(w.rc, mmpp, w.h)
	if err != nil {
		return nil, nil, err
	}
	w.h.afterCommit = w.publishVerdict
	// The subscriptions are live once the broker applied them and a ping
	// went round: frames published from here on are delivered.
	for start := time.Now(); w.rc.ActiveSubscriptions() < 2; {
		if time.Since(start) > 30*time.Second {
			return nil, nil, errors.New("broker link never came up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.rc.Ping(10 * time.Second); err != nil {
		return nil, nil, err
	}
	fmt.Println("SUBSCRIBED")
	calib, err := live.calibration(calibLayers, 30*time.Second)
	return live, calib, err
}

// publishVerdict sends a committed specimen verdict back to the driver as
// a connector tuple. It runs on the pipeline's sink goroutine.
func (w *worker) publishVerdict(res bench.Result, d digest) {
	data, err := core.EncodeTuple(verdictTuple(res.Job, res.Layer, res.Specimen, res.Events, d))
	if err == nil {
		at := time.Now()
		w.h.spans.add(layerID(res.Job, res.Layer), markPubVerdict, at, at)
		err = w.rc.PublishMsg(pubsub.Message{Subject: subjectVerdict, Data: data})
	}
	if err != nil {
		w.publishErrs.Add(1)
	}
}

// verdictTuple is the small result tuple that travels the wire the 8 MB
// frames came in on.
func verdictTuple(job string, layer int, specimen string, events int, d digest) core.EventTuple {
	return core.EventTuple{
		TS: time.Now(), Job: job, Layer: layer, Specimen: specimen,
		KV: map[string]any{"digest": d[:], "events": int64(events)},
	}
}

// checkpointOnce times one Manager.CheckpointNow from outside: the pause
// it imposes on the idle pipeline and the bytes the epoch wrote.
func (w *worker) checkpointOnce() error {
	start := time.Now()
	if err := w.h.mgr.CheckpointNow(pipelineName); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	w.ckptPauseMS = append(w.ckptPauseMS, ms(time.Since(start)))
	if prom := gather(w.h.mgr); prom["strata_ckpt_size_bytes_count"] > 0 {
		w.ckptBytes = prom["strata_ckpt_size_bytes_sum"] / prom["strata_ckpt_size_bytes_count"]
	}
	return nil
}

// serve runs the driver's commands until stdin closes.
func (w *worker) serve(in *bufio.Scanner) error {
	// ctx ends when the pipeline does, so no wait below outlives it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-w.h.failed:
			cancel()
		case <-ctx.Done():
		}
	}()
	for in.Scan() {
		cmd := strings.Fields(in.Text())
		if len(cmd) == 0 {
			continue
		}
		select {
		case <-w.h.failed:
			return fmt.Errorf("pipeline ended: %v", w.h.failErr)
		default:
		}
		switch cmd[0] {
		case "warm":
			// warm <layers>
			var n int
			if len(cmd) != 2 {
				return fmt.Errorf("bad command %q", in.Text())
			}
			if _, err := fmt.Sscan(cmd[1], &n); err != nil || n < 1 {
				return fmt.Errorf("bad command %q", in.Text())
			}
			if w.replay != nil {
				w.replay.pace.open(n, 0)
				if err := w.replay.pace.drained(ctx); err != nil {
					return fmt.Errorf("warm-up: %w (pipeline: %v)", err, w.h.failErr)
				}
			}
			fmt.Println("WARM")
		case "begin":
			// begin <milliseconds> [trace]
			var millis int
			if len(cmd) < 2 {
				return fmt.Errorf("bad command %q", in.Text())
			}
			if _, err := fmt.Sscan(cmd[1], &millis); err != nil {
				return fmt.Errorf("bad command %q", in.Text())
			}
			if w.probeCkpt && len(w.windows) == 0 {
				// After the warm-up, before anything is measured.
				if err := w.checkpointOnce(); err != nil {
					return err
				}
			}
			w.h.spans.on.Store(len(cmd) > 2 && cmd[2] == "trace")
			w.begin = w.h.beginWindow()
			fmt.Println("BEGUN")
			if w.replay == nil {
				continue // live: the driver is the load and ends the window
			}
			w.replay.pace.open(0, time.Duration(millis)*time.Millisecond)
			if err := w.replay.pace.drained(ctx); err != nil {
				return fmt.Errorf("window: %w (pipeline: %v)", err, w.h.failErr)
			}
			w.endWindow()
		case "end":
			w.endWindow()
		default:
			return fmt.Errorf("unknown command %q", in.Text())
		}
	}
	return in.Err()
}

// endWindow closes the measured window and reports it.
func (w *worker) endWindow() {
	w.windows = append(w.windows, w.h.endWindow(w.begin))
	w.h.spans.on.Store(false)
	fmt.Println("ENDED")
}

func (w *worker) writeReport() error {
	rep := workerReport{
		Windows: w.windows,
		Spans:   w.h.spans.take(),
		Extras: workerExtras{
			CkptPauseMS:   w.ckptPauseMS,
			CkptBytes:     w.ckptBytes,
			Reconnects:    w.rc.Reconnects(),
			PublishErrors: w.publishErrs.Load(),
		},
	}
	if w.replay != nil {
		rep.Attempted = w.replay.pace.attemptedByJob()
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(w.dir, workerReportFile), raw, 0o644)
}
