package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// keyed (defined in aggregate_test.go) has unexported fields, so the
// snapshot tests give it an explicit gob codec — the same approach
// core.EventTuple takes with its binary codec.
func (k keyed) GobEncode() ([]byte, error) {
	return fmt.Appendf(nil, "%d %q %d", k.ts, k.key, k.val), nil
}

func (k *keyed) GobDecode(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%d %q %d", &k.ts, &k.key, &k.val)
	return err
}

// feedFirst builds a positioned source that emits items[0:k] and then parks
// until the query is cancelled, closing fed once the k-th emit has returned.
// Parking (rather than returning) keeps the query alive so Checkpoint can run
// against a quiescent but unfinished pipeline — the shape of a live pipeline
// between layer events.
func feedFirst(items []keyed, k int, fed chan<- struct{}) PositionedSourceFunc[keyed] {
	return func(ctx context.Context, emit PosEmit[keyed]) error {
		for i := 0; i < k; i++ {
			if err := emit(uint64(i), items[i]); err != nil {
				return err
			}
		}
		close(fed)
		<-ctx.Done()
		return nil
	}
}

// feedFrom builds a positioned source replaying items[start:] to completion.
func feedFrom(items []keyed, start uint64) PositionedSourceFunc[keyed] {
	return func(ctx context.Context, emit PosEmit[keyed]) error {
		for i := start; i < uint64(len(items)); i++ {
			if err := emit(i, items[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkpointParked runs qa until every fed channel closes, checkpoints the
// quiesced query, cancels it (the crash) and returns the snapshot.
func checkpointParked(tb testing.TB, qa *Query, fed ...chan struct{}) *QuerySnapshot {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- qa.Run(ctx) }()
	for _, c := range fed {
		<-c
	}
	snap, err := qa.Checkpoint(context.Background(), nil)
	cancel()
	if runErr := <-done; runErr != nil && !errors.Is(runErr, context.Canceled) {
		tb.Fatalf("Run(A) error = %v", runErr)
	}
	if err != nil {
		tb.Fatalf("Checkpoint() error = %v", err)
	}
	return snap
}

// runSplit runs the pipeline produced by build twice: query A feeds the first
// k items, checkpoints, and is cancelled (the crash); query B is built
// fresh, restored from the snapshot, and replays the rest. It returns A's and
// B's sink contents. Equivalence against an uncrashed run is the caller's
// assertion.
func runSplit[Out any](t *testing.T, items []keyed, k int, build func(q *Query, src *Stream[keyed]) *[]Out) (outA, outB []Out) {
	t.Helper()

	qa := NewQuery("split-a")
	qa.EnableSnapshots()
	fed := make(chan struct{})
	srcA := AddPositionedSource(qa, "src", 0, feedFirst(items, k, fed))
	gotA := build(qa, srcA)
	snap := checkpointParked(t, qa, fed)
	if pos := snap.Positions["src"]; pos != uint64(k) {
		t.Fatalf("snapshot position = %d, want %d (all emits had returned)", pos, k)
	}

	qb := NewQuery("split-b")
	srcB := AddPositionedSource(qb, "src", snap.Positions["src"], feedFrom(items, snap.Positions["src"]))
	gotB := build(qb, srcB)
	if err := qb.RestoreCheckpoint(snap); err != nil {
		t.Fatalf("RestoreCheckpoint() error = %v", err)
	}
	if err := qb.Run(context.Background()); err != nil {
		t.Fatalf("Run(B) error = %v", err)
	}
	return *gotA, *gotB
}

// sumBuild is the canonical stateful pipeline: per-key sums over the last
// three panes, so open panes (the snapshotted state) span several input
// tuples.
func sumBuild(q *Query, src *Stream[keyed]) *[]string {
	agg := Aggregate(q, "sum", src, 3, keyOf, keyedPane, winString)
	got := new([]string)
	AddSink(q, "sink", agg, ToSlice(got))
	return got
}

func ckptItems(n int) []keyed {
	keys := []string{"a", "b", "c"}
	items := make([]keyed, n)
	for i := range items {
		items[i] = keyed{ts: int64(i * 2), key: keys[i%len(keys)], val: i + 1}
	}
	return items
}

// TestCheckpointAggregateEquivalence is the core crash-consistency property:
// for any split point, checkpoint-crash-restore-replay produces exactly the
// uncrashed run's outputs — no lost windows, no duplicates, same order.
func TestCheckpointAggregateEquivalence(t *testing.T) {
	items := ckptItems(40)

	baseQ := NewQuery("baseline")
	baseSrc := AddPositionedSource(baseQ, "src", 0, feedFrom(items, 0))
	baseline := sumBuild(baseQ, baseSrc)
	if err := runQuery(t, baseQ); err != nil {
		t.Fatalf("baseline Run() error = %v", err)
	}

	for _, k := range []int{0, 1, 7, 21, len(items)} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			outA, outB := runSplit(t, items, k, sumBuild)
			got := append(append([]string{}, outA...), outB...)
			if fmt.Sprint(got) != fmt.Sprint(*baseline) {
				t.Fatalf("split at %d: outputs diverge\n  A = %v\n  B = %v\n  want = %v", k, outA, outB, *baseline)
			}
		})
	}
}

// runningSums is a Process's checkpointed state: a running sum per key.
type runningSums struct {
	sums map[string]int
}

func (r *runningSums) Snapshot() ([]byte, error) { return gobEncode(r.sums) }

func (r *runningSums) Restore(b []byte) error {
	sums := map[string]int{}
	if err := gobDecode(b, &sums); err != nil {
		return err
	}
	r.sums = sums
	return nil
}

// processSumBuild feeds a stateless FlatMap into a Process whose state is
// per-key running sums, emitted with every tuple and once more at
// end-of-stream.
func processSumBuild(q *Query, src *Stream[keyed]) *[]string {
	st := &runningSums{sums: map[string]int{}}
	tagged := FlatMap(q, "tag", src, func(v keyed, emit Emit[keyed]) error { return emit(v) })
	sums := Process(q, "sum", tagged,
		func(v keyed, emit Emit[string]) error {
			st.sums[v.key] += v.val
			return emit(fmt.Sprintf("%s=%d", v.key, st.sums[v.key]))
		},
		func(emit Emit[string]) error { return emit(fmt.Sprint(st.sums)) },
		st)
	got := new([]string)
	AddSink(q, "sink", sums, ToSlice(got))
	return got
}

// TestCheckpointProcessStateEquivalence: a Process's state argument is
// checkpointed and restored like an Aggregate's windows, and a stateless
// FlatMap contributes no blob and accepts none.
func TestCheckpointProcessStateEquivalence(t *testing.T) {
	items := ckptItems(40)

	baseQ := NewQuery("baseline")
	baseline := processSumBuild(baseQ, AddPositionedSource(baseQ, "src", 0, feedFrom(items, 0)))
	if err := runQuery(t, baseQ); err != nil {
		t.Fatalf("baseline Run() error = %v", err)
	}
	for _, k := range []int{0, 1, 7, 21, len(items)} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			outA, outB := runSplit(t, items, k, processSumBuild)
			got := append(append([]string{}, outA...), outB...)
			if fmt.Sprint(got) != fmt.Sprint(*baseline) {
				t.Fatalf("split at %d: outputs diverge\n  A = %v\n  B = %v\n  want = %v", k, outA, outB, *baseline)
			}
		})
	}

	qa := NewQuery("blobs")
	qa.EnableSnapshots()
	fed := make(chan struct{})
	processSumBuild(qa, AddPositionedSource(qa, "src", 0, feedFirst(items, 7, fed)))
	snap := checkpointParked(t, qa, fed)
	if _, ok := snap.Ops["sum"]; !ok || len(snap.Ops) != 1 {
		t.Fatalf("snapshot ops = %v, want only the Process's blob", snap.Ops)
	}
	qb := NewQuery("blobs-b")
	processSumBuild(qb, AddPositionedSource(qb, "src", 0, feedFrom(items, 0)))
	err := qb.RestoreCheckpoint(&QuerySnapshot{Plan: snap.Plan, Ops: map[string][]byte{"tag": snap.Ops["sum"]}})
	if err == nil || !strings.Contains(err.Error(), "not restorable") {
		t.Fatalf("restoring a blob into the stateless FlatMap: err = %v, want not restorable", err)
	}
}

// twoSourceSplit is runSplit for two-input pipelines (the join): both
// sources pause after their split point, the checkpoint records both
// positions, and query B resumes each from its own offset.
func twoSourceSplit[Out any](t *testing.T, l, r []keyed, kl, kr int, build func(q *Query, ls, rs *Stream[keyed]) *[]Out) (outA, outB []Out) {
	t.Helper()

	qa := NewQuery("two-a")
	qa.EnableSnapshots()
	fedL, fedR := make(chan struct{}), make(chan struct{})
	lsA := AddPositionedSource(qa, "left", 0, feedFirst(l, kl, fedL))
	rsA := AddPositionedSource(qa, "right", 0, feedFirst(r, kr, fedR))
	gotA := build(qa, lsA, rsA)
	snap := checkpointParked(t, qa, fedL, fedR)

	qb := NewQuery("two-b")
	lsB := AddPositionedSource(qb, "left", snap.Positions["left"], feedFrom(l, snap.Positions["left"]))
	rsB := AddPositionedSource(qb, "right", snap.Positions["right"], feedFrom(r, snap.Positions["right"]))
	gotB := build(qb, lsB, rsB)
	if err := qb.RestoreCheckpoint(snap); err != nil {
		t.Fatalf("RestoreCheckpoint() error = %v", err)
	}
	if err := qb.Run(context.Background()); err != nil {
		t.Fatalf("Run(B) error = %v", err)
	}
	return *gotA, *gotB
}

// joinBuild is the canonical two-input stateful pipeline: a keyed window
// join whose two buffers are the snapshotted state.
func joinBuild(q *Query, ls, rs *Stream[keyed]) *[]string {
	joined := Join(q, "join", ls, rs, 5,
		func(v keyed) string { return v.key },
		func(v keyed) string { return v.key },
		func(a, b keyed) (string, bool) {
			return fmt.Sprintf("%s:%d+%d", a.key, a.val, b.val), true
		})
	got := new([]string)
	AddSink(q, "sink", joined, ToSlice(got))
	return got
}

// TestCheckpointJoinEquivalence covers both join buffers. Join output order
// depends on input interleaving, so the comparison is as multisets.
func TestCheckpointJoinEquivalence(t *testing.T) {
	var l, r []keyed
	for i := 0; i < 24; i++ {
		l = append(l, keyed{ts: int64(i * 2), key: fmt.Sprintf("k%d", i%3), val: i})
		r = append(r, keyed{ts: int64(i*2 + 1), key: fmt.Sprintf("k%d", i%3), val: 100 + i})
	}

	build := joinBuild
	baseQ := NewQuery("baseline")
	baseline := build(baseQ,
		AddPositionedSource(baseQ, "left", 0, feedFrom(l, 0)),
		AddPositionedSource(baseQ, "right", 0, feedFrom(r, 0)))
	if err := runQuery(t, baseQ); err != nil {
		t.Fatalf("baseline Run() error = %v", err)
	}

	outA, outB := twoSourceSplit(t, l, r, 9, 14, build)
	got := append(outA, outB...)
	sort.Strings(got)
	want := append([]string{}, *baseline...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("join outputs diverge (as multisets)\n got = %v\nwant = %v", got, want)
	}
}

// TestCheckpointUnderLoad checkpoints repeatedly while the pipeline is
// processing flat out; the checkpoints must neither lose nor duplicate
// outputs, and every call must either succeed or report the query gone.
func TestCheckpointUnderLoad(t *testing.T) {
	const n = 5000
	items := make([]keyed, n)
	for i := range items {
		items[i] = keyed{ts: int64(i), key: "a", val: 1}
	}

	q := NewQuery("load")
	q.EnableSnapshots()
	src := AddPositionedSource(q, "src", 0, feedFrom(items, 0))
	var got []string
	// Panes of 100 tuples, each closed by its last tuple.
	agg := Aggregate(q, "sum", src, 1, keyOf,
		func(v keyed) (int, bool) { return int(v.ts/100) + 1, v.ts%100 == 99 },
		func(w Window[string, keyed], emit Emit[string]) error {
			if len(w.Tuples) != 99 {
				return fmt.Errorf("pane %d holds %d tuples, want 99", w.Pane, len(w.Tuples))
			}
			return emit(fmt.Sprintf("%d=%d", w.Pane, len(w.Tuples)))
		})
	AddSink(q, "sink", agg, ToSlice(&got))

	done := make(chan error, 1)
	go func() { done <- q.Run(context.Background()) }()

	var ok, gone int
	for {
		snap, err := q.Checkpoint(context.Background(), nil)
		switch {
		case err == nil:
			if snap.Positions["src"] > n {
				t.Errorf("position %d beyond input length %d", snap.Positions["src"], n)
			}
			ok++
		case errors.Is(err, ErrQueryNotRunning):
			gone++
		default:
			t.Fatalf("Checkpoint() error = %v", err)
		}
		if gone > 0 {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if ok == 0 {
		t.Log("no checkpoint completed before the query drained (timing-dependent, not a failure)")
	}
	want := n / 100
	if len(got) != want {
		t.Fatalf("got %d windows, want %d (checkpointing corrupted the run)", len(got), want)
	}
}

// TestCheckpointDisabled: without EnableSnapshots the machinery must refuse
// (and cost nothing on the hot path).
func TestCheckpointDisabled(t *testing.T) {
	q := NewQuery("off")
	src := AddSource(q, "src", FromSlice([]keyed{{1, "a", 1}}))
	AddSink(q, "sink", src, Discard[keyed]())
	if _, err := q.Checkpoint(context.Background(), nil); !errors.Is(err, ErrSnapshotsDisabled) {
		t.Fatalf("Checkpoint() error = %v, want ErrSnapshotsDisabled", err)
	}
}

// TestCheckpointNotRunning: before Run and after completion.
func TestCheckpointNotRunning(t *testing.T) {
	q := NewQuery("idle")
	q.EnableSnapshots()
	src := AddSource(q, "src", FromSlice([]keyed{{1, "a", 1}}))
	AddSink(q, "sink", src, Discard[keyed]())
	if _, err := q.Checkpoint(context.Background(), nil); !errors.Is(err, ErrQueryNotRunning) {
		t.Fatalf("Checkpoint() before Run error = %v, want ErrQueryNotRunning", err)
	}
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if _, err := q.Checkpoint(context.Background(), nil); !errors.Is(err, ErrQueryNotRunning) {
		t.Fatalf("Checkpoint() after Run error = %v, want ErrQueryNotRunning", err)
	}
}

// TestCheckpointAbortsOnOperatorFailure: an operator failing while the
// coordinator is pausing must abort the checkpoint — a dying query has no
// consistent cut.
func TestCheckpointAbortsOnOperatorFailure(t *testing.T) {
	q := NewQuery("failing")
	q.EnableSnapshots()
	boom := errors.New("boom")
	entered := make(chan struct{})
	release := make(chan struct{})
	src := AddSource(q, "src", FromSlice([]keyed{{1, "a", 1}}))
	mapped := FlatMap(q, "fail", src, func(v keyed, emit Emit[keyed]) error {
		close(entered)
		<-release // hold the operator busy until the checkpoint is pausing
		return boom
	})
	AddSink(q, "sink", mapped, Discard[keyed]())

	done := make(chan error, 1)
	go func() { done <- q.Run(context.Background()) }()
	// Only start the checkpoint once the operator is provably busy — it can
	// then never reach stability before the failure.
	<-entered

	ckptErr := make(chan error, 1)
	go func() {
		_, err := q.Checkpoint(context.Background(), nil)
		ckptErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	if err := <-ckptErr; !errors.Is(err, ErrQueryFailing) && !errors.Is(err, ErrQueryNotRunning) {
		t.Fatalf("Checkpoint() error = %v, want ErrQueryFailing or ErrQueryNotRunning", err)
	}
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("Run() error = %v, want boom", err)
	}
}

// TestCheckpointCallbackRunsQuiesced: fn must observe the paused pipeline —
// no tuple may land in a sink while fn runs.
func TestCheckpointCallbackRunsQuiesced(t *testing.T) {
	const n = 2000
	items := make([]keyed, n)
	for i := range items {
		items[i] = keyed{ts: int64(i), key: "a", val: 1}
	}
	q := NewQuery("quiesced")
	q.EnableSnapshots()
	src := AddPositionedSource(q, "src", 0, feedFrom(items, 0))
	var delivered atomic.Int64
	AddSink(q, "sink", src, func(v keyed) error {
		delivered.Add(1)
		return nil
	})

	done := make(chan error, 1)
	go func() { done <- q.Run(context.Background()) }()

	for {
		var before, after int64
		snap, err := q.Checkpoint(context.Background(), func(s *QuerySnapshot) error {
			before = delivered.Load()
			time.Sleep(2 * time.Millisecond)
			after = delivered.Load()
			return nil
		})
		if errors.Is(err, ErrQueryNotRunning) {
			break
		}
		if err != nil {
			t.Fatalf("Checkpoint() error = %v", err)
		}
		if before != after {
			t.Fatalf("sink advanced during quiesced callback: %d -> %d", before, after)
		}
		// The recorded position must equal what the sink had seen while the
		// query was quiesced: every emitted tuple is fully absorbed. Compare
		// against the count read inside the callback — once Checkpoint
		// returns the query has resumed and the sink keeps counting.
		if snap.Positions["src"] != uint64(after) {
			t.Fatalf("position %d != delivered %d at quiescence", snap.Positions["src"], after)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Run() error = %v", err)
	}
}

// TestRestoreCheckpointValidation: a snapshot of another plan, or with a
// blob for an operator that is unknown or stateless, is an error (the
// topology must match), and a nil snapshot is a no-op.
func TestRestoreCheckpointValidation(t *testing.T) {
	q := NewQuery("validate")
	src := AddSource(q, "src", FromSlice([]keyed{}))
	AddSink(q, "sink", src, Discard[keyed]())

	plan := planOf(q.ops)
	if fmt.Sprint(plan) != "[sink src]" {
		t.Fatalf("plan = %v, want [sink src]", plan)
	}
	if err := q.RestoreCheckpoint(nil); err != nil {
		t.Fatalf("RestoreCheckpoint(nil) error = %v", err)
	}
	if err := q.RestoreCheckpoint(&QuerySnapshot{Plan: plan}); err != nil {
		t.Fatalf("RestoreCheckpoint of the query's plan, no blobs: error = %v", err)
	}
	for _, other := range [][]string{nil, {"sink"}, {"sink", "src", "src.1"}} {
		err := q.RestoreCheckpoint(&QuerySnapshot{Plan: other})
		if err == nil || !strings.Contains(err.Error(), "another plan") {
			t.Fatalf("RestoreCheckpoint of plan %v: err = %v, want another plan", other, err)
		}
	}
	err := q.RestoreCheckpoint(&QuerySnapshot{Plan: plan, Ops: map[string][]byte{"ghost": nil}})
	if err == nil || !strings.Contains(err.Error(), "no operator") {
		t.Fatalf("RestoreCheckpoint with unknown operator: err = %v, want no operator", err)
	}
	// An operator that exists but holds no state is equally invalid.
	err = q.RestoreCheckpoint(&QuerySnapshot{Plan: plan, Ops: map[string][]byte{"sink": nil}})
	if err == nil || !strings.Contains(err.Error(), "not restorable") {
		t.Fatalf("RestoreCheckpoint targeting a stateless operator: err = %v, want not restorable", err)
	}
}

// TestPlainSourceNotPositioned: only positioned sources appear in Positions.
func TestPlainSourceNotPositioned(t *testing.T) {
	q := NewQuery("plain")
	q.EnableSnapshots()
	blocked := make(chan struct{})
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[keyed]) error {
		close(blocked)
		<-ctx.Done()
		return nil
	})
	AddSink(q, "sink", src, Discard[keyed]())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- q.Run(ctx) }()
	<-blocked

	snap, err := q.Checkpoint(context.Background(), nil)
	if err != nil {
		t.Fatalf("Checkpoint() error = %v", err)
	}
	if len(snap.Positions) != 0 {
		t.Fatalf("Positions = %v, want empty for a plain source", snap.Positions)
	}
	cancel()
	<-done
}
