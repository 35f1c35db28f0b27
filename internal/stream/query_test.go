package stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// runQuery runs q with a generous timeout so a wiring bug fails the test
// instead of hanging the suite.
func runQuery(t *testing.T, q *Query) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return q.Run(ctx)
}

func ints(n int) []At[int] {
	out := make([]At[int], n)
	for i := range out {
		out[i] = At[int]{TS: int64(i), Val: i}
	}
	return out
}

func TestQueryRunEmpty(t *testing.T) {
	q := NewQuery("empty")
	if err := q.Run(context.Background()); !errors.Is(err, ErrNoOperators) {
		t.Fatalf("Run() error = %v, want ErrNoOperators", err)
	}
}

func TestQueryLinearPipeline(t *testing.T) {
	q := NewQuery("linear")
	src := AddSource(q, "src", FromSlice(ints(100)))
	doubled := Map(q, "double", src, func(v At[int]) (At[int], error) {
		return At[int]{TS: v.TS, Val: v.Val * 2}, nil
	})
	var got []At[int]
	AddSink(q, "sink", doubled, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d tuples, want 100", len(got))
	}
	for i, v := range got {
		if v.Val != 2*i {
			t.Fatalf("got[%d].Val = %d, want %d", i, v.Val, 2*i)
		}
	}
}

func TestQueryDanglingStream(t *testing.T) {
	q := NewQuery("dangling")
	AddSource(q, "src", FromSlice(ints(1)))
	err := q.Run(context.Background())
	if !errors.Is(err, ErrDanglingStream) {
		t.Fatalf("Run() error = %v, want ErrDanglingStream", err)
	}
}

func TestQueryDoubleConsume(t *testing.T) {
	q := NewQuery("doubleconsume")
	src := AddSource(q, "src", FromSlice(ints(1)))
	AddSink(q, "sink1", src, Discard[At[int]]())
	AddSink(q, "sink2", src, Discard[At[int]]())
	if err := q.Run(context.Background()); !errors.Is(err, ErrStreamConsumed) {
		t.Fatalf("Run() error = %v, want ErrStreamConsumed", err)
	}
}

func TestQueryDuplicateOperatorName(t *testing.T) {
	q := NewQuery("dupname")
	src := AddSource(q, "op", FromSlice(ints(1)))
	Map(q, "op", src, func(v At[int]) (At[int], error) { return v, nil })
	if err := q.Run(context.Background()); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("Run() error = %v, want ErrDuplicateName", err)
	}
}

func TestQueryNilUDF(t *testing.T) {
	q := NewQuery("niludf")
	src := AddSource(q, "src", FromSlice(ints(1)))
	Map[At[int], At[int]](q, "m", src, nil)
	if err := q.Err(); !errors.Is(err, ErrNilUDF) {
		t.Fatalf("Err() = %v, want ErrNilUDF", err)
	}
}

func TestQueryCrossQueryStream(t *testing.T) {
	q1 := NewQuery("q1")
	q2 := NewQuery("q2")
	src := AddSource(q1, "src", FromSlice(ints(1)))
	AddSink(q2, "sink", src, Discard[At[int]]())
	if err := q2.Err(); !errors.Is(err, ErrCrossQuery) {
		t.Fatalf("q2.Err() = %v, want ErrCrossQuery", err)
	}
}

func TestQueryUDFErrorAbortsRun(t *testing.T) {
	sentinel := errors.New("boom")
	q := NewQuery("udferr")
	src := AddSource(q, "src", FromSlice(ints(1000)))
	bad := Map(q, "bad", src, func(v At[int]) (At[int], error) {
		if v.Val == 7 {
			return v, sentinel
		}
		return v, nil
	})
	AddSink(q, "sink", bad, Discard[At[int]]())
	err := runQuery(t, q)
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run() error = %v, want wrapped sentinel", err)
	}
}

func TestQuerySinkErrorAbortsRun(t *testing.T) {
	sentinel := errors.New("sink failed")
	q := NewQuery("sinkerr")
	src := AddSource(q, "src", FromSlice(ints(10)))
	AddSink(q, "sink", src, func(At[int]) error { return sentinel })
	if err := runQuery(t, q); !errors.Is(err, sentinel) {
		t.Fatalf("Run() error = %v, want sentinel", err)
	}
}

func TestQueryCancellation(t *testing.T) {
	q := NewQuery("cancel")
	// An endless source: only cancellation can stop this query.
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		for i := 0; ; i++ {
			if err := emit(At[int]{TS: int64(i), Val: i}); err != nil {
				return err
			}
		}
	})
	AddSink(q, "sink", src, Discard[At[int]]())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run() error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not stop after cancellation")
	}
}

func TestQueryRunTwiceSequentially(t *testing.T) {
	// Queries are one-shot: a second Run must be rejected cleanly (the
	// channels were closed by the first drain).
	q := NewQuery("rerun")
	src := AddSource(q, "src", FromSlice(ints(5)))
	AddSink(q, "sink", src, Discard[At[int]]())
	if err := runQuery(t, q); err != nil {
		t.Fatalf("first Run() error = %v", err)
	}
	if err := q.Run(context.Background()); !errors.Is(err, ErrQueryFinished) {
		t.Fatalf("second Run() error = %v, want ErrQueryFinished", err)
	}
}

func TestQueryAddWhileRunning(t *testing.T) {
	q := NewQuery("addwhilerunning")
	release := make(chan struct{})
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		<-release
		return nil
	})
	AddSink(q, "sink", src, Discard[At[int]]())
	done := make(chan error, 1)
	go func() { done <- q.Run(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	AddSource(q, "late", FromSlice(ints(1)))
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if err := q.Err(); !errors.Is(err, ErrQueryRunning) {
		t.Fatalf("Err() = %v, want ErrQueryRunning", err)
	}
}

func TestQueryBackpressure(t *testing.T) {
	// With a buffer of 1, batching off, and a slow sink, the source must
	// be throttled: at no point can more than a few tuples be in flight.
	// (With batching on, the same bound holds in chunks rather than tuples
	// — see TestBatchBackpressureInChunks.)
	q := NewQuery("bp", WithQueryBuffer(1), withQueryBatch(1))
	var produced, consumed atomic.Int64
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		for i := 0; i < 50; i++ {
			if err := emit(At[int]{TS: int64(i), Val: i}); err != nil {
				return err
			}
			produced.Add(1)
		}
		return nil
	})
	AddSink(q, "sink", src, func(v At[int]) error {
		// in-flight = produced - consumed must stay small: source
		// buffer (1) + sink's current tuple (1) + source's in-hand (1).
		if p, c := produced.Load(), consumed.Load(); p-c > 3 {
			return fmt.Errorf("backpressure violated: produced=%d consumed=%d", p, c)
		}
		consumed.Add(1)
		return nil
	})
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if got := consumed.Load(); got != 50 {
		t.Fatalf("consumed = %d, want 50", got)
	}
}

func TestMetricsCounters(t *testing.T) {
	q := NewQuery("metrics")
	src := AddSource(q, "src", FromSlice(ints(10)))
	f := Filter(q, "keepEven", src, func(v At[int]) (bool, error) { return v.Val%2 == 0, nil })
	AddSink(q, "sink", f, Discard[At[int]]())
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	m := q.Metrics()
	if got := m.Op("src").Out(); got != 10 {
		t.Errorf("src out = %d, want 10", got)
	}
	if got := m.Op("keepEven").In(); got != 10 {
		t.Errorf("filter in = %d, want 10", got)
	}
	if got := m.Op("keepEven").Out(); got != 5 {
		t.Errorf("filter out = %d, want 5", got)
	}
	if got := m.Op("sink").In(); got != 5 {
		t.Errorf("sink in = %d, want 5", got)
	}
	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	if m.String() == "" {
		t.Error("String() is empty")
	}
}
