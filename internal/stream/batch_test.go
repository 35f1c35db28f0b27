package stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"strata/internal/telemetry"
)

// TestBatchSizeOneMatchesUnbatched checks the documented opt-out: batch 1
// reproduces per-tuple semantics exactly (every chunk is a single tuple).
func TestBatchSizeOneMatchesUnbatched(t *testing.T) {
	q := NewQuery("batch1", WithQueryBatch(1))
	src := AddSource(q, "src", FromSlice(ints(40)))
	m := Map(q, "id", src, func(v At[int]) (At[int], error) { return v, nil })
	var got []At[int]
	AddSink(q, "sink", m, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d tuples, want 40", len(got))
	}
	bat := q.Metrics().Op("src").Batches()
	if bat.Count != 40 || bat.Max != 1 {
		t.Fatalf("batch histogram count=%d max=%g, want 40 chunks of exactly 1", bat.Count, bat.Max)
	}
}

// TestBatchingPreservesOrderAndCount pushes enough tuples through a batched
// pipeline to span many chunks (including a final partial one) and checks
// nothing is lost, duplicated, or reordered.
func TestBatchingPreservesOrderAndCount(t *testing.T) {
	const n = 1003 // deliberately not a multiple of the batch size
	q := NewQuery("batched", WithQueryBatch(16), WithQueryLinger(0))
	src := AddSource(q, "src", FromSlice(ints(n)))
	m := Map(q, "inc", src, func(v At[int]) (At[int], error) {
		return At[int]{TS: v.TS, Val: v.Val + 1}, nil
	})
	var got []At[int]
	AddSink(q, "sink", m, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != n {
		t.Fatalf("got %d tuples, want %d", len(got), n)
	}
	for i, v := range got {
		if v.Val != i+1 {
			t.Fatalf("got[%d].Val = %d, want %d (order broken)", i, v.Val, i+1)
		}
	}
	bat := q.Metrics().Op("src").Batches()
	if bat.Count == 0 || bat.Sum != float64(n) {
		t.Fatalf("batch histogram count=%d sum=%g, want sum %d across >0 chunks", bat.Count, bat.Sum, n)
	}
	if bat.Max != 16 {
		t.Fatalf("batch histogram max=%g, want full chunks of 16", bat.Max)
	}
}

// TestLingerFlushesStalledSource stalls a source mid-chunk: three tuples sit
// in a 64-slot chunk that will never fill, so only the linger deadline can
// deliver them. The sink must see all three while the source is still
// blocked.
func TestLingerFlushesStalledSource(t *testing.T) {
	q := NewQuery("linger", WithQueryBatch(64), WithQueryLinger(2*time.Millisecond))
	got := make(chan At[int], 8)
	resume := make(chan struct{})
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		for i := 0; i < 3; i++ {
			if err := emit(At[int]{TS: int64(i), Val: i}); err != nil {
				return err
			}
		}
		select {
		case <-resume:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	AddSink(q, "sink", src, func(v At[int]) error {
		got <- v
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- q.Run(context.Background()) }()
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("tuple %d never flushed: linger deadline did not fire while the source stalled", i)
		}
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("Run() error = %v", err)
	}
}

// TestBatchBackpressureInChunks is the chunk-granularity sibling of
// TestQueryBackpressure: with a buffer of one chunk and batching on, a slow
// sink bounds the in-flight tuple count at a few chunks' worth.
func TestBatchBackpressureInChunks(t *testing.T) {
	const batch = 4
	q := NewQuery("bp-chunks", WithQueryBuffer(1), WithQueryBatch(batch), WithQueryLinger(0))
	var produced, consumed atomic.Int64
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		for i := 0; i < 60; i++ {
			if err := emit(At[int]{TS: int64(i), Val: i}); err != nil {
				return err
			}
			produced.Add(1)
		}
		return nil
	})
	AddSink(q, "sink", src, func(v At[int]) error {
		// In flight ≤ source's in-hand chunk + one buffered chunk + the
		// chunk the sink is draining = 3 chunks.
		if p, c := produced.Load(), consumed.Load(); p-c > 3*batch {
			return fmt.Errorf("backpressure violated: produced=%d consumed=%d", p, c)
		}
		consumed.Add(1)
		return nil
	})
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if got := consumed.Load(); got != 60 {
		t.Fatalf("consumed = %d, want 60", got)
	}
}

// TestTraceAndWatermarkThroughChunkedEdges checks the per-tuple metadata the
// batching layer must not coarsen: sampled trace contexts finish with one
// span per operator, and operator watermarks advance to the true maximum
// event time even though observation happens once per chunk.
func TestTraceAndWatermarkThroughChunkedEdges(t *testing.T) {
	q := NewQuery("chunk-meta", WithQueryBatch(8), WithQueryLinger(0))
	const n = 20
	tuples := make([]tracedTuple, n)
	for i := range tuples {
		tuples[i] = tracedTuple{ts: int64(i) * 1000}
	}
	// Two sampled tuples landing mid-chunk and in the final partial chunk.
	tuples[5].tr = telemetry.NewTrace(5, "chunk-meta")
	tuples[n-1].tr = telemetry.NewTrace(19, "chunk-meta")

	src := AddSource(q, "src", FromSlice(tuples))
	stage := Map(q, "stage", src, func(v tracedTuple) (tracedTuple, error) { return v, nil })
	AddSink(q, "sink", stage, Discard[tracedTuple]())
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}

	traces := q.Traces().Slowest(10)
	if len(traces) != 2 {
		t.Fatalf("finished traces = %d, want 2 (both sampled tuples)", len(traces))
	}
	for _, tr := range traces {
		if !tr.Finished {
			t.Errorf("trace %d not finished", tr.ID)
		}
		wantOps := []string{"stage", "sink"}
		if len(tr.Spans) != len(wantOps) {
			t.Fatalf("trace %d spans = %+v, want %v", tr.ID, tr.Spans, wantOps)
		}
		for i, sp := range tr.Spans {
			if sp.Op != wantOps[i] {
				t.Errorf("trace %d span %d op = %q, want %q", tr.ID, i, sp.Op, wantOps[i])
			}
		}
	}

	for _, op := range []string{"stage", "sink"} {
		w, ok := q.Metrics().Op(op).Watermark()
		if !ok || w != (n-1)*1000 {
			t.Errorf("%s watermark = %d (ok=%v), want %d", op, w, ok, (n-1)*1000)
		}
	}
}

// TestSpanRecordedBeforeMidChunkSend pins deterministically the ordering
// the trace test above samples: an operator whose output chunk leaves while
// it is still inside its input chunk (here a chunk of one, full at the first
// emit) must already have recorded the tuple's span, because the sink may
// finish the trace at once and a finished trace drops later spans. The
// stage holds its input open until the sink has finished the trace.
func TestSpanRecordedBeforeMidChunkSend(t *testing.T) {
	q := NewQuery("mid-chunk", WithQueryBatch(1), WithQueryLinger(0))
	tr := telemetry.NewTrace(1, "mid-chunk")
	src := AddSource(q, "src", FromSlice([]tracedTuple{{ts: 1, tr: tr}}))
	stage := FlatMap(q, "stage", src, func(v tracedTuple, emit Emit[tracedTuple]) error {
		if err := emit(v); err != nil {
			return err
		}
		deadline := time.Now().Add(10 * time.Second)
		for !tr.Snapshot().Finished {
			if time.Now().After(deadline) {
				return errors.New("sink never finished the trace")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	AddSink(q, "sink", stage, Discard[tracedTuple]())
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 2 || snap.Spans[0].Op != "stage" || snap.Spans[1].Op != "sink" {
		t.Fatalf("spans = %+v, want [stage sink]", snap.Spans)
	}
}

// TestSingleTupleLatencyWithDefaultLinger bounds the latency cost of default
// batching: one tuple must not wait for a chunk to fill — the linger (200µs
// by default) releases it almost immediately. The bound here is deliberately
// loose for noisy CI machines; the benchmark suite tracks the tight number.
func TestSingleTupleLatencyWithDefaultLinger(t *testing.T) {
	q := NewQuery("latency")
	emitted := make(chan time.Time, 1)
	var arrived time.Time
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		emitted <- time.Now()
		return emit(At[int]{TS: 1, Val: 1})
	})
	AddSink(q, "sink", src, func(v At[int]) error {
		arrived = time.Now()
		return nil
	})
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	latency := arrived.Sub(<-emitted)
	if latency > 100*time.Millisecond {
		t.Fatalf("single-tuple latency = %v: default linger failed to flush promptly", latency)
	}
	t.Logf("single-tuple latency with default linger: %v", latency)
}
