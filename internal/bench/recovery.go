package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"strata/internal/core"
	"strata/internal/pubsub"
)

// CheckpointReport compares the use-case pipeline with checkpointing off
// and on: the zero-cost-when-off acceptance check plus the cost of each
// checkpoint epoch when on.
type CheckpointReport struct {
	// Off is the baseline run (no WithCheckpointInterval).
	Off RunStats
	// On is the same workload under periodic checkpoints.
	On RunStats
	// Checkpoints is how many epochs committed during the On run.
	Checkpoints int
	// MeanPause and MaxPause are the wall time of a checkpoint — the
	// quiesce-capture-commit span during which the pipeline is paused.
	MeanPause time.Duration
	MaxPause  time.Duration
}

// OverheadPct is the relative slowdown of the checkpointed run in achieved
// cell throughput, in percent (negative: the checkpointed run was faster,
// i.e. the difference is noise).
func (r CheckpointReport) OverheadPct() float64 {
	off := r.Off.CellsPerSec()
	if off == 0 {
		return 0
	}
	return (off - r.On.CellsPerSec()) / off * 100
}

// String renders the report as an aligned table.
func (r CheckpointReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s\n", "mode", "cells/s", "images/s")
	fmt.Fprintf(&b, "%-14s %12.0f %12.2f\n", "no checkpoint", r.Off.CellsPerSec(), r.Off.ImagesPerSec())
	fmt.Fprintf(&b, "%-14s %12.0f %12.2f\n", "checkpointed", r.On.CellsPerSec(), r.On.ImagesPerSec())
	fmt.Fprintf(&b, "overhead: %.1f%% · %d checkpoints, pause mean %v max %v\n",
		r.OverheadPct(), r.Checkpoints,
		r.MeanPause.Round(time.Microsecond), r.MaxPause.Round(time.Microsecond))
	return b.String()
}

// RunCheckpointOverhead runs the Algorithm 1 pipeline twice over the same
// replay buffer — once bare, once under a Manager taking a checkpoint every
// interval — and reports the throughput delta and per-checkpoint pause.
func RunCheckpointOverhead(ctx context.Context, cfg ExperimentConfig, interval time.Duration) (CheckpointReport, error) {
	cfg = cfg.withDefaults()
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	var report CheckpointReport

	replay, layerMM, err := replayBuffer(cfg)
	if err != nil {
		return report, err
	}
	edge := paperPxToLocal(10, cfg.ImagePx)
	params := PipelineParams{CellEdgePx: edge, L: 10, Parallelism: cfg.Parallelism}

	run := func(ckpt bool) (RunStats, error) {
		dir, err := os.MkdirTemp("", "strata-ckpt-*")
		if err != nil {
			return RunStats{}, err
		}
		defer os.RemoveAll(dir)
		broker := pubsub.NewBroker()
		defer broker.Close()
		m, err := core.NewManager(dir, broker)
		if err != nil {
			return RunStats{}, err
		}
		defer m.Close()

		feed := &ReplayFeed{Layers: replay}
		var rec LatencyRecorder
		var results int
		var events int64
		var cells atomic.Int64
		build := func(fw *core.Framework) error {
			if err := calibrateFromReplay(fw, replay); err != nil {
				return err
			}
			return buildPipeline(fw, feed, layerMM, params, func(r Result) error {
				rec.Record(r.Latency)
				results++
				events += int64(r.Events)
				return nil
			}, &cells)
		}
		var opts []core.DeployOption
		if ckpt {
			// A huge interval: the loop exists but the test drives
			// CheckpointNow itself for a deterministic epoch count.
			opts = append(opts, core.WithCheckpointInterval(time.Hour))
		}
		start := time.Now()
		p, err := m.Deploy("usecase", build, opts...)
		if err != nil {
			return RunStats{}, err
		}
		stop := make(chan struct{})
		ticked := make(chan struct{})
		if ckpt {
			go func() {
				defer close(ticked)
				t := time.NewTicker(interval)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						begin := time.Now()
						if err := m.CheckpointNow("usecase"); err != nil {
							continue // pipeline completed mid-checkpoint
						}
						pause := time.Since(begin)
						report.Checkpoints++
						report.MeanPause += pause
						if pause > report.MaxPause {
							report.MaxPause = pause
						}
					}
				}
			}()
		}
		waitErr := p.Wait()
		close(stop)
		if ckpt {
			<-ticked
			if report.Checkpoints > 0 {
				report.MeanPause /= time.Duration(report.Checkpoints)
			}
		}
		if waitErr != nil {
			return RunStats{}, waitErr
		}
		elapsed := time.Since(start)
		return RunStats{
			Latencies:      rec.Values(),
			Results:        results,
			CellsProcessed: cells.Load(),
			Events:         events,
			Elapsed:        elapsed,
			Layers:         len(replay),
		}, nil
	}

	if report.Off, err = run(false); err != nil {
		return report, fmt.Errorf("baseline run: %w", err)
	}
	cfg.logf("ckpt off: %.0f cells/s", report.Off.CellsPerSec())
	if report.On, err = run(true); err != nil {
		return report, fmt.Errorf("checkpointed run: %w", err)
	}
	cfg.logf("ckpt on: %.0f cells/s, %d checkpoints", report.On.CellsPerSec(), report.Checkpoints)
	if ctx.Err() != nil {
		return report, ctx.Err()
	}
	return report, nil
}
