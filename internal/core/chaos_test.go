package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"strata/internal/faultinject"
	"strata/internal/kvstore"
	"strata/internal/pubsub"
)

// chaosRig wires the recurring kill-and-recover fixture: a recorded raw log
// feeding a checkpointed detect→correlate pipeline whose results land in a
// DeliverDurable sink. The detect stage hosts an armable crashpoint so a
// test can kill one incarnation at an exact layer.
type chaosRig struct {
	store   *pubsub.LogStore
	mgr     *Manager
	subject string

	cps *faultinject.Crashpoints
	// par is the parallelism of the detect and correlate stages (0: 1).
	par int

	mu      sync.Mutex
	results []EventTuple
}

const chaosWindow = 3 // correlate window L

func newChaosRig(t *testing.T) *chaosRig {
	t.Helper()
	store, err := pubsub.OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker()
	m, err := NewManager(t.TempDir(), broker)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		broker.Close()
		store.Close()
	})
	return &chaosRig{
		store:   store,
		mgr:     m,
		subject: "strata.raw.chaos.j",
		cps:     faultinject.NewCrashpoints(),
	}
}

// appendLayers records layers [from, to] on the raw log. Each layer carries
// a deterministic power reading.
func (r *chaosRig) appendLayers(t *testing.T, from, to int) {
	t.Helper()
	base := time.UnixMicro(1_000_000)
	for l := from; l <= to; l++ {
		data, err := EncodeTuple(EventTuple{
			TS:    base.Add(time.Duration(l) * time.Second),
			Job:   "j",
			Layer: l,
			KV:    map[string]any{"power": float64(l)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.store.Append(r.subject, data); err != nil {
			t.Fatal(err)
		}
	}
}

// build composes the pipeline: replay source (live tail) → detect (emits a
// score per layer, hosts the "detect" crashpoint) → correlate over
// chaosWindow layers (sums the scores) → durable sink recording the sums
// both in the store (out/<seq>) and in memory.
func (r *chaosRig) build(fw *Framework) error {
	src := fw.AddReplaySource("raw", r.store, r.subject, true)
	det := fw.DetectEvent("det", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		if err := r.cps.Hit(fmt.Sprintf("detect.layer.%d", t.Layer)); err != nil {
			return err
		}
		p, _ := t.KV["power"].(float64)
		return emit(&EventTuple{KV: map[string]any{"score": p * 10}})
	}, WithParallelism(r.par))
	cor := fw.CorrelateEvents("cor", det, chaosWindow, func(w CorrelateWindow, emit func(EventTuple) error) error {
		sum := 0.0
		for _, e := range w.Events {
			s, _ := e.KV["score"].(float64)
			sum += s
		}
		return emit(EventTuple{KV: map[string]any{"sum": sum}})
	}, WithParallelism(r.par))
	fw.DeliverDurable("out", cor, func(seq uint64, t EventTuple, b *kvstore.Batch) error {
		sum, _ := t.KV["sum"].(float64)
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], uint64(t.Layer))
		binary.BigEndian.PutUint64(buf[8:], uint64(sum))
		b.Put(fmt.Appendf(nil, "out/%016x", seq), buf[:])
		r.mu.Lock()
		r.results = append(r.results, t)
		r.mu.Unlock()
		return nil
	})
	return nil
}

func (r *chaosRig) resultCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

func (r *chaosRig) waitResults(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for r.resultCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d results, have %d", n, r.resultCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// expectedSum is the correlate output for layer l: the sum of score(l') =
// 10*l' over the window (l-chaosWindow, l].
func expectedSum(l int) float64 {
	sum := 0.0
	for x := l - chaosWindow + 1; x <= l; x++ {
		if x >= 1 {
			sum += float64(x) * 10
		}
	}
	return sum
}

// verifyResults checks the in-memory result sequence AND the durable out/
// keys against the deterministic expectation: exactly one result per layer
// 1..n, in order, each with the correct window sum.
func (r *chaosRig) verifyResults(t *testing.T, n int) {
	t.Helper()
	r.mu.Lock()
	results := append([]EventTuple(nil), r.results...)
	r.mu.Unlock()
	if len(results) != n {
		layers := make([]int, len(results))
		for i, res := range results {
			layers[i] = res.Layer
		}
		t.Fatalf("sink applied %d results, want %d (layers %v)", len(results), n, layers)
	}
	for i, res := range results {
		want := expectedSum(i + 1)
		got, _ := res.KV["sum"].(float64)
		if res.Layer != i+1 || got != want {
			t.Fatalf("result %d = layer %d sum %v, want layer %d sum %v",
				i, res.Layer, got, i+1, want)
		}
	}
	// The durable effects must agree with the in-memory trace.
	seen := 0
	err := r.mgr.Store().ScanPrefix([]byte("out/"), func(k, v []byte) bool {
		seen++
		seq := seen // keys are seq-ordered
		layer := int(binary.BigEndian.Uint64(v[:8]))
		sum := float64(binary.BigEndian.Uint64(v[8:]))
		if layer != seq || sum != expectedSum(layer) {
			t.Errorf("durable key %q = layer %d sum %v, want layer %d sum %v",
				k, layer, sum, seq, expectedSum(seq))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("store holds %d out/ keys, want %d", seen, n)
	}
}

// TestChaosKillAndRecover is the headline recovery property: kill a
// checkpointed pipeline between checkpoints, let the supervisor restore it,
// and require outputs identical to a run that never crashed — no losses, no
// duplicates, correct window contents across the crash boundary.
func TestChaosKillAndRecover(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 10)

	p, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(time.Hour), // checkpoints driven manually
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(3),
		WithRestartBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	r.waitResults(t, 10)
	if err := r.mgr.CheckpointNow("chaos"); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}

	// Kill incarnation 1 at layer 15: layers 11-14 are processed (and their
	// effects durably applied) AFTER the checkpoint, so recovery must replay
	// them and suppress the re-application.
	r.cps.Arm("detect.layer.15", 1, errors.New("injected crash"))
	crashed := make(chan struct{})
	go func() {
		for r.cps.Fired("detect.layer.15") == 0 {
			time.Sleep(time.Millisecond)
		}
		r.cps.Disarm("detect.layer.15")
		close(crashed)
	}()
	r.appendLayers(t, 11, 20)
	select {
	case <-crashed:
	case <-time.After(15 * time.Second):
		t.Fatal("injected crash never fired")
	}

	r.waitResults(t, 20)
	// End the tail and let the pipeline complete.
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := p.Restarts(); got < 1 {
		t.Fatalf("Restarts() = %d, want >= 1", got)
	}
	if got := p.ckpt.restores.Load(); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
	r.verifyResults(t, 20)
}

// TestChaosMidCheckpointCrash arms the pre-apply crashpoint inside the
// checkpoint coordinator: the epoch write never happens, the failure is
// counted, and a subsequent kill recovers from the PREVIOUS epoch with
// outputs still identical to an uncrashed run.
func TestChaosMidCheckpointCrash(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 10)

	p, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(time.Hour),
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(3),
		WithRestartBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	r.waitResults(t, 10)
	if err := r.mgr.CheckpointNow("chaos"); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}

	// Process a few more layers, then crash INSIDE the next checkpoint,
	// after the capture but before the epoch batch is applied.
	r.appendLayers(t, 11, 14)
	r.waitResults(t, 14)
	boom := errors.New("crash mid-checkpoint")
	checkpointCrash = func(stage string) error { return r.cps.Hit("ckpt." + stage) }
	r.cps.Arm("ckpt.pre-apply", 1, boom)
	err = r.mgr.CheckpointNow("chaos")
	r.cps.Disarm("ckpt.pre-apply")
	checkpointCrash = nil
	if !errors.Is(err, boom) {
		t.Fatalf("CheckpointNow during injected crash = %v, want %v", err, boom)
	}
	if got := p.ckpt.failures.Load(); got != 1 {
		t.Fatalf("checkpoint failures = %d, want 1", got)
	}

	// The torn checkpoint must be invisible: the latest pointer still names
	// epoch 1 and no epoch-2 keys exist.
	lb, err := r.mgr.Store().Get(ckptLatestKey("chaos"))
	if err != nil || binary.BigEndian.Uint64(lb) != 1 {
		t.Fatalf("latest pointer = %x (err %v), want epoch 1", lb, err)
	}
	epochs, err := listEpochs(r.mgr.Store(), "chaos")
	if err != nil || len(epochs) != 1 || epochs[0] != 1 {
		t.Fatalf("epochs = %v (err %v), want [1]", epochs, err)
	}

	// Now kill the pipeline; recovery must fall back to epoch 1 (source
	// offset 10) and replay layers 11+ without duplicating their effects.
	r.cps.Arm("detect.layer.16", 1, errors.New("injected crash"))
	crashed := make(chan struct{})
	go func() {
		for r.cps.Fired("detect.layer.16") == 0 {
			time.Sleep(time.Millisecond)
		}
		r.cps.Disarm("detect.layer.16")
		close(crashed)
	}()
	r.appendLayers(t, 15, 20)
	select {
	case <-crashed:
	case <-time.After(15 * time.Second):
		t.Fatal("injected crash never fired")
	}

	r.waitResults(t, 20)
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	r.verifyResults(t, 20)
}

// TestChaosPeriodicCheckpointsAndRetention lets the interval loop drive
// checkpoints and checks that retention prunes old epochs while keeping the
// newest ones restorable.
func TestChaosPeriodicCheckpointsAndRetention(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 10)

	p, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(5*time.Millisecond),
		withCheckpointRetention(2),
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(3),
		WithRestartBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, 10)

	// Wait until several epochs have committed.
	deadline := time.Now().Add(15 * time.Second)
	for p.ckpt.lastEpoch.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d epochs committed", p.ckpt.lastEpoch.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	epochs, err := listEpochs(r.mgr.Store(), "chaos")
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) > 2 {
		t.Fatalf("retention kept %d epochs (%v), want <= 2", len(epochs), epochs)
	}
	last := p.ckpt.lastEpoch.Load()
	if len(epochs) == 0 || epochs[len(epochs)-1] != last {
		t.Fatalf("epochs = %v, want newest == %d", epochs, last)
	}
	r.verifyResults(t, 10)
}

// TestChaosRestoreFailureChargedToBudget corrupts checkpointed state so
// every rebuild fails its restore: the supervisor must charge each attempt
// to the restart budget and land on StatusFailed — neither instantly
// terminal on the first restore error, nor retrying forever.
func TestChaosRestoreFailureChargedToBudget(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 10)

	p, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(time.Hour),
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(2),
		WithRestartBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, 10)
	if err := r.mgr.CheckpointNow("chaos"); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}

	// Corrupt the correlate operator's blob inside epoch 1: gob decode will
	// fail on every restore attempt.
	key := append(ckptEpochPrefix("chaos", 1), "op/cor"...)
	if _, err := r.mgr.Store().Get(key); err != nil {
		t.Fatalf("checkpoint blob %q missing: %v", key, err)
	}
	if err := r.mgr.Store().Put(key, []byte("garbage")); err != nil {
		t.Fatal(err)
	}

	r.cps.Arm("detect.layer.11", 1, errors.New("injected crash"))
	r.appendLayers(t, 11, 12)

	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCheckpointRestore) {
			t.Fatalf("Wait() = %v, want ErrCheckpointRestore", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pipeline neither failed nor recovered (restore retry loop?)")
	}
	if got := p.Status(); got != StatusFailed {
		t.Fatalf("Status() = %v, want %v", got, StatusFailed)
	}
	if got := p.Restarts(); got < 1 || got > 2 {
		t.Fatalf("Restarts() = %d, want within budget [1, 2]", got)
	}
}

// TestChaosDecommissionDuringPendingRestart decommissions a pipeline while
// its supervisor is waiting out the restart backoff: the pipeline must go
// terminal promptly instead of sleeping through the backoff or restarting.
func TestChaosDecommissionDuringPendingRestart(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 5)

	p, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(time.Hour),
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(3),
		WithRestartBackoff(time.Minute)) // park the supervisor in backoff
	if err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, 5)

	r.cps.Arm("detect.layer.6", 1, errors.New("injected crash"))
	r.appendLayers(t, 6, 7)
	deadline := time.Now().Add(15 * time.Second)
	for p.Status() != StatusRestarting {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never entered restart backoff (status %v)", p.Status())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := r.mgr.Decommission("chaos"); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("decommission took %v — supervisor slept through the backoff", elapsed)
	}
	if got := p.Status(); got != StatusDecommissioned {
		t.Fatalf("Status() = %v, want %v", got, StatusDecommissioned)
	}
}

// TestChaosCloseDuringInFlightCheckpoint closes the manager while a
// checkpoint is captured-but-uncommitted: the checkpoint must fail cleanly
// (closed store) without deadlocking Close or the coordinator.
func TestChaosCloseDuringInFlightCheckpoint(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 5)

	_, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, 5)

	entered := make(chan struct{})
	release := make(chan struct{})
	checkpointCrash = func(stage string) error {
		if stage == "pre-apply" {
			close(entered)
			<-release
		}
		return nil
	}
	defer func() { checkpointCrash = nil }()

	ckptErr := make(chan error, 1)
	go func() { ckptErr <- r.mgr.CheckpointNow("chaos") }()
	<-entered

	closeErr := make(chan error, 1)
	go func() { closeErr <- r.mgr.Close() }()
	// Close cancels the pipeline and waits for the supervisor; give it a
	// moment to get there, then let the checkpoint proceed into the closed
	// store.
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case err := <-ckptErr:
		if err == nil {
			// The epoch batch won the race with the store closing — that is
			// a complete (atomic) checkpoint, which is also acceptable.
			break
		}
		if !errors.Is(err, kvstore.ErrClosed) && !errors.Is(err, context.Canceled) {
			t.Fatalf("CheckpointNow = %v, want ErrClosed/Canceled/nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("CheckpointNow deadlocked against Close")
	}
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Close deadlocked against in-flight checkpoint")
	}
}

// TestChaosCheckpointingOffIsZeroCost: without WithCheckpointInterval the
// framework takes the untracked fast path — snapshots stay disabled in the
// engine and CheckpointNow refuses to run.
func TestChaosCheckpointingOffIsZeroCost(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 5)

	p, err := r.mgr.Deploy("chaos", r.build)
	if err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, 5)
	if p.Framework().ckptEnabled {
		t.Fatal("ckptEnabled without WithCheckpointInterval")
	}
	if err := r.mgr.CheckpointNow("chaos"); err == nil {
		t.Fatal("CheckpointNow on an uncheckpointed pipeline should fail")
	}
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	r.verifyResults(t, 5)
}
