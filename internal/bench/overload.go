package bench

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"strata/internal/core"
	"strata/internal/pubsub"
)

// OverloadRun is one mode of the overload experiment: the same deadline-
// bearing workload pushed through a sink that is too slow for the offered
// rate, with or without shed-late protection.
type OverloadRun struct {
	// Offered is the number of tuples the source emitted.
	Offered int64
	// Fresh counts deliveries that arrived before their deadline; Stale
	// counts deliveries past it (service wasted on answers nobody can use).
	Fresh int64
	Stale int64
	// Shed counts tuples dropped at shed gates, summed across operators.
	Shed int64
	// Makespan is the wall time from deploy to pipeline completion.
	Makespan time.Duration
	// P50 and P99 are availability-to-delivery latency percentiles over the
	// tuples that reached the sink (the queueing delay the sink's consumers
	// actually observe).
	P50 time.Duration
	P99 time.Duration
}

// Delivered is the number of tuples that reached the sink.
func (r OverloadRun) Delivered() int64 { return r.Fresh + r.Stale }

// OverloadReport contrasts an unprotected run (every tuple serviced, however
// stale) with a shed-late run (expired tuples dropped at the gates), over an
// identical offered load and deadline budget.
type OverloadReport struct {
	Unprotected OverloadRun
	Protected   OverloadRun
	// Budget is the per-tuple deadline relative to the start of the run.
	Budget time.Duration
}

// String renders the report as an aligned table.
func (r OverloadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %12s %10s %10s\n",
		"mode", "offered", "fresh", "stale", "shed", "makespan", "p50", "p99")
	row := func(name string, run OverloadRun) {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %8d %12v %10v %10v\n",
			name, run.Offered, run.Fresh, run.Stale, run.Shed,
			run.Makespan.Round(time.Millisecond),
			run.P50.Round(time.Millisecond), run.P99.Round(time.Millisecond))
	}
	row("unprotected", r.Unprotected)
	row("shed-late", r.Protected)
	fmt.Fprintf(&b, "deadline budget %v · shed-late makespan %.1f%% of unprotected\n",
		r.Budget, float64(r.Protected.Makespan)/float64(r.Unprotected.Makespan)*100)
	return b.String()
}

// RunOverloadExperiment measures graceful degradation under sustained
// overload (DESIGN.md §11). A source offers tuples far faster than the sink
// can service them, every tuple carrying the same absolute deadline; once
// the budget elapses, all remaining work is wasted. The unprotected run
// services the whole backlog anyway and delivers mostly stale results; the
// protected run engages the shed-late gate (as the overload controller does
// at its first rung) so expired tuples are dropped at the gates instead of
// consuming sink capacity. The books must balance in both modes:
// delivered + shed == offered.
func RunOverloadExperiment(ctx context.Context, cfg ExperimentConfig) (OverloadReport, error) {
	cfg = cfg.withDefaults()
	const (
		total       = 2000
		serviceTime = 100 * time.Microsecond
		budget      = 60 * time.Millisecond
	)
	report := OverloadReport{Budget: budget}

	run := func(name string, shedLate bool) (OverloadRun, error) {
		dir, err := os.MkdirTemp("", "strata-overload-*")
		if err != nil {
			return OverloadRun{}, err
		}
		defer os.RemoveAll(dir)
		broker := pubsub.NewBroker()
		defer broker.Close()
		m, err := core.NewManager(dir, broker)
		if err != nil {
			return OverloadRun{}, err
		}
		defer m.Close()

		var fresh, stale atomic.Int64
		var rec LatencyRecorder
		start := time.Now()
		deadline := start.Add(budget)
		base := time.UnixMicro(1_000_000)
		p, err := m.Deploy("overload", func(fw *core.Framework) error {
			if shedLate {
				// Engage the first rung of the degradation ladder by hand so
				// the run is deterministic (the controller itself is
				// exercised in internal/core's ladder test).
				fw.Query().Overload().SetShedLate(true, 0)
			}
			src := fw.AddSource("src", func(ctx context.Context, emit func(core.EventTuple) error) error {
				for i := 1; i <= total; i++ {
					err := emit(core.EventTuple{
						TS:          base.Add(time.Duration(i) * time.Millisecond),
						Job:         "bench",
						Layer:       i,
						AvailableAt: time.Now(),
						Deadline:    deadline,
					})
					if err != nil {
						return err
					}
				}
				return nil
			})
			det := fw.DetectEvent("det", src, func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
				return emit(t)
			})
			fw.Deliver("sink", det, func(t core.EventTuple) error {
				time.Sleep(serviceTime) // the sink is the bottleneck
				rec.Record(time.Since(t.AvailableAt))
				if time.Now().Before(t.Deadline) {
					fresh.Add(1)
				} else {
					stale.Add(1)
				}
				return nil
			})
			return nil
		})
		if err != nil {
			return OverloadRun{}, err
		}
		if err := p.Wait(); err != nil {
			return OverloadRun{}, err
		}
		out := OverloadRun{
			Offered:  total,
			Fresh:    fresh.Load(),
			Stale:    stale.Load(),
			Makespan: time.Since(start),
		}
		if lats := rec.Values(); len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			out.P50 = lats[50*(len(lats)-1)/100]
			out.P99 = lats[99*(len(lats)-1)/100]
		}
		for _, s := range p.Framework().Query().Metrics().Snapshot() {
			out.Shed += s.Shed
		}
		if got := out.Delivered() + out.Shed; got != out.Offered {
			return OverloadRun{}, fmt.Errorf(
				"%s: delivered %d + shed %d != offered %d",
				name, out.Delivered(), out.Shed, out.Offered)
		}
		cfg.logf("%s: fresh=%d stale=%d shed=%d makespan=%v p99=%v",
			name, out.Fresh, out.Stale, out.Shed,
			out.Makespan.Round(time.Millisecond), out.P99.Round(time.Millisecond))
		return out, nil
	}

	var err error
	if report.Unprotected, err = run("unprotected", false); err != nil {
		return report, err
	}
	if ctx.Err() != nil {
		return report, ctx.Err()
	}
	if report.Protected, err = run("shed-late", true); err != nil {
		return report, err
	}
	return report, ctx.Err()
}
