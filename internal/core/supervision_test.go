package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"strata/internal/stream"
)

// TestPanickingPipelineIsIsolated: a panic inside one pipeline's UDF fails
// that pipeline only; a co-deployed pipeline keeps running to a clean drain,
// and the failure stays diagnosable through Status/Err after the pipeline
// left the live registry.
func TestPanickingPipelineIsIsolated(t *testing.T) {
	m, _ := newTestManager(t)

	release := make(chan struct{})
	var survived int
	good, err := m.Deploy("good", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			select {
			case <-release:
			case <-ctx.Done():
				return ctx.Err()
			}
			return emit(EventTuple{Job: "j", Layer: 1})
		})
		fw.Deliver("out", src, func(EventTuple) error { survived++; return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	bad, err := m.Deploy("bad", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("j", 3, nil))
		fw.Deliver("out", src, func(EventTuple) error { panic("detector exploded") })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := bad.Wait(); !errors.Is(err, stream.ErrPanic) {
		t.Fatalf("bad.Wait() = %v, want ErrPanic", err)
	}
	if bad.Status() != StatusFailed {
		t.Fatalf("bad.Status() = %v, want failed", bad.Status())
	}

	// The crashed pipeline is out of the live registry but not gone.
	info, err := m.Status("bad")
	if err != nil {
		t.Fatalf("Status(bad) = %v", err)
	}
	if info.Status != StatusFailed || !errors.Is(info.Err, stream.ErrPanic) {
		t.Fatalf("Status(bad) = %+v", info)
	}
	failed := m.Failed()
	if len(failed) != 1 || failed[0].Name != "bad" {
		t.Fatalf("Failed() = %v, want [bad]", failed)
	}

	// The neighbour never noticed.
	close(release)
	if err := good.Wait(); err != nil {
		t.Fatalf("good.Wait() = %v", err)
	}
	if survived != 1 {
		t.Fatalf("good pipeline delivered %d tuples, want 1", survived)
	}
	if good.Status() != StatusCompleted {
		t.Fatalf("good.Status() = %v, want completed", good.Status())
	}
}

// TestRestartOnFailureRecovers: a pipeline whose source fails on its first
// two incarnations is rebuilt (build re-invoked) and succeeds on the third,
// within the restart budget.
func TestRestartOnFailureRecovers(t *testing.T) {
	m, _ := newTestManager(t)

	var attempts atomic.Int32
	var delivered atomic.Int32
	p, err := m.Deploy("flaky", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			if attempts.Add(1) <= 2 {
				return errors.New("sensor hiccup")
			}
			return emit(EventTuple{Job: "j", Layer: 1})
		})
		fw.Deliver("out", src, func(EventTuple) error { delivered.Add(1); return nil })
		return nil
	},
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(5),
		WithRestartBackoff(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait() = %v, want nil after recovery", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("source ran %d times, want 3", got)
	}
	if p.Restarts() != 2 {
		t.Fatalf("Restarts() = %d, want 2", p.Restarts())
	}
	if p.Status() != StatusCompleted {
		t.Fatalf("Status() = %v, want completed", p.Status())
	}
	if delivered.Load() != 1 {
		t.Fatalf("delivered %d tuples, want 1", delivered.Load())
	}
}

// TestRestartBudgetExhausted: a pipeline that keeps failing is retried
// exactly maxRestarts times and then marked failed with the last error.
func TestRestartBudgetExhausted(t *testing.T) {
	m, _ := newTestManager(t)

	var attempts atomic.Int32
	wantErr := errors.New("permanently broken")
	p, err := m.Deploy("doomed", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			attempts.Add(1)
			return wantErr
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	},
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(2),
		WithRestartBackoff(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); !errors.Is(err, wantErr) {
		t.Fatalf("Wait() = %v, want %v", err, wantErr)
	}
	if got := attempts.Load(); got != 3 { // initial run + 2 restarts
		t.Fatalf("source ran %d times, want 3", got)
	}
	if p.Restarts() != 2 {
		t.Fatalf("Restarts() = %d, want 2", p.Restarts())
	}
	info, err := m.Status("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusFailed || info.Restarts != 2 || !errors.Is(info.Err, wantErr) {
		t.Fatalf("Status(doomed) = %+v", info)
	}
}

// TestRestartNeverFailsImmediately: the default policy does not retry.
func TestRestartNeverFailsImmediately(t *testing.T) {
	m, _ := newTestManager(t)

	var attempts atomic.Int32
	p, err := m.Deploy("oneshot", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			attempts.Add(1)
			return errors.New("boom")
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("Wait() = nil, want error")
	}
	if attempts.Load() != 1 {
		t.Fatalf("source ran %d times, want 1", attempts.Load())
	}
	if p.Status() != StatusFailed {
		t.Fatalf("Status() = %v, want failed", p.Status())
	}
}

// TestStatusDistinguishesDecommissionFromCrash: the motivating scenario —
// hours into a build, "is that pipeline gone because we stopped it or
// because it died?" must be answerable.
func TestStatusDistinguishesDecommissionFromCrash(t *testing.T) {
	m, _ := newTestManager(t)

	endless := func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			<-ctx.Done()
			return ctx.Err()
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	}
	if _, err := m.Deploy("stopped", endless); err != nil {
		t.Fatal(err)
	}
	crashed, err := m.Deploy("crashed", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("j", 1, nil))
		fw.Deliver("out", src, func(EventTuple) error { return errors.New("bad layer") })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Decommission("stopped"); err != nil {
		t.Fatal(err)
	}
	_ = crashed.Wait()

	si, err := m.Status("stopped")
	if err != nil {
		t.Fatal(err)
	}
	if si.Status != StatusDecommissioned || si.Err != nil {
		t.Fatalf("Status(stopped) = %+v, want decommissioned/nil", si)
	}
	ci, err := m.Status("crashed")
	if err != nil {
		t.Fatal(err)
	}
	if ci.Status != StatusFailed || ci.Err == nil {
		t.Fatalf("Status(crashed) = %+v, want failed with error", ci)
	}
	if _, err := m.Status("never-existed"); !errors.Is(err, ErrPipelineUnknown) {
		t.Fatalf("Status(unknown) = %v, want ErrPipelineUnknown", err)
	}

	// Only the crash shows up in Failed().
	failed := m.Failed()
	if len(failed) != 1 || failed[0].Name != "crashed" {
		t.Fatalf("Failed() = %v, want [crashed]", failed)
	}

	// A redeploy under a terminal name is allowed and supersedes the record.
	if _, err := m.Deploy("crashed", endless); err != nil {
		t.Fatalf("redeploy over terminal pipeline = %v", err)
	}
	ri, err := m.Status("crashed")
	if err != nil {
		t.Fatal(err)
	}
	if ri.Status != StatusRunning {
		t.Fatalf("redeployed Status = %+v, want running", ri)
	}
}

// TestRestartingStatusVisible: while waiting out the backoff the pipeline
// reports StatusRestarting and stays in List().
func TestRestartingStatusVisible(t *testing.T) {
	m, _ := newTestManager(t)

	var attempts atomic.Int32
	failedOnce := make(chan struct{})
	var closeOnce atomic.Bool
	p, err := m.Deploy("lazarus", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			if attempts.Add(1) == 1 {
				if closeOnce.CompareAndSwap(false, true) {
					close(failedOnce)
				}
				return errors.New("first run dies")
			}
			return nil
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	},
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(1),
		WithRestartBackoff(200*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	<-failedOnce
	// Poll: shortly after the failure the supervisor is in its backoff
	// window and the pipeline must report restarting, still listed as live.
	deadline := time.Now().Add(2 * time.Second)
	for p.Status() != StatusRestarting {
		if time.Now().After(deadline) {
			t.Fatalf("Status() = %v, never saw restarting", p.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if infos := m.List(); len(infos) != 1 || infos[0].Status != StatusRestarting {
		t.Fatalf("List() during backoff = %v", infos)
	}
	if p.Err() == nil {
		t.Fatal("Err() during restart should expose the last failure")
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait() = %v, want nil", err)
	}
	if p.Err() != nil {
		t.Fatalf("Err() after recovery = %v, want nil", p.Err())
	}
}

// TestDecommissionDuringBackoffWindow: cancelling a pipeline while the
// supervisor waits out a restart backoff must end it as decommissioned, not
// leave it restarting forever.
func TestDecommissionDuringBackoffWindow(t *testing.T) {
	m, _ := newTestManager(t)

	p, err := m.Deploy("limbo", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			return errors.New("always fails")
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	},
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(100),
		WithRestartBackoff(10*time.Second), // far longer than the test
	)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Status() != StatusRestarting {
		if time.Now().After(deadline) {
			t.Fatalf("Status() = %v, never saw restarting", p.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Decommission("limbo"); err != nil {
		t.Fatalf("Decommission during backoff = %v", err)
	}
	if p.Status() != StatusDecommissioned {
		t.Fatalf("Status() = %v, want decommissioned", p.Status())
	}
}

// TestRestartBudgetResetsAfterHealthyRun: withMaxRestarts bounds consecutive
// failures, not lifetime ones. A pipeline that fails, recovers, runs
// healthily past restartBudgetResetAfter, then fails again gets a fresh
// budget for the second outage — it is not permanently failed on its Nth
// lifetime error days into a build.
func TestRestartBudgetResetsAfterHealthyRun(t *testing.T) {
	old := restartBudgetResetAfter
	restartBudgetResetAfter = 50 * time.Millisecond
	defer func() { restartBudgetResetAfter = old }()

	m, _ := newTestManager(t)

	var attempts atomic.Int32
	p, err := m.Deploy("long-build", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			switch attempts.Add(1) {
			case 1: // first outage: a quick failure consumes the whole budget
				return errors.New("outage one")
			case 2: // healthy run, long enough to earn the budget back
				time.Sleep(150 * time.Millisecond)
				return errors.New("outage two, much later")
			default:
				return emit(EventTuple{Job: "j", Layer: 1})
			}
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	},
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(1),
		WithRestartBackoff(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait() = %v, want nil: the second outage should get a fresh budget", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("source ran %d times, want 3", got)
	}
	if p.Restarts() != 2 {
		t.Fatalf("Restarts() = %d, want 2 (lifetime count stays cumulative)", p.Restarts())
	}
	if p.Status() != StatusCompleted {
		t.Fatalf("Status() = %v, want completed", p.Status())
	}
}
