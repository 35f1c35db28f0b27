package stream

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// timeoutC returns a channel that fires when the test should give up
// waiting.
func timeoutC(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(5 * time.Second)
}

// TestPanickingUDFFailsQueryCleanly: a panic inside any user function must
// surface as an operator error from Run — attributed to the operator, tagged
// ErrPanic, carrying the panic value — not crash the process.
func TestPanickingUDFFailsQueryCleanly(t *testing.T) {
	cases := []struct {
		name  string
		build func(q *Query)
	}{
		{"map", func(q *Query) {
			src := AddSource(q, "src", FromSlice([]int{1, 2, 3}))
			m := Map(q, "boom", src, func(v int) (int, error) {
				if v == 2 {
					panic("udf exploded")
				}
				return v, nil
			})
			AddSink(q, "sink", m, Discard[int]())
		}},
		{"source", func(q *Query) {
			src := AddSource(q, "boom", func(ctx context.Context, emit Emit[int]) error {
				panic("udf exploded")
			})
			AddSink(q, "sink", src, Discard[int]())
		}},
		{"sink", func(q *Query) {
			src := AddSource(q, "src", FromSlice([]int{1}))
			AddSink(q, "boom", src, func(int) error { panic("udf exploded") })
		}},
		{"process", func(q *Query) {
			src := AddSource(q, "src", FromSlice([]int{1}))
			p := Process(q, "boom", src, func(v int, emit Emit[int]) error {
				panic("udf exploded")
			}, nil, nil)
			AddSink(q, "sink", p, Discard[int]())
		}},
		{"aggregate", func(q *Query) {
			src := AddSource(q, "src", FromSlice([]At[int]{{TS: 1, Val: 1}, {TS: 100, Val: 2}}))
			a := Aggregate(q, "boom", src, 1,
				func(At[int]) int { return 0 },
				func(v At[int]) (int, bool) { return 1, v.TS > 1 },
				func(w Window[int, At[int]], emit Emit[int]) error { panic("udf exploded") })
			AddSink(q, "sink", a, Discard[int]())
		}},
		{"join", func(q *Query) {
			l := AddSource(q, "l", FromSlice([]At[int]{{TS: 1, Val: 1}}))
			r := AddSource(q, "r", FromSlice([]At[int]{{TS: 1, Val: 2}}))
			j := Join(q, "boom", l, r, 10,
				func(At[int]) int { return 0 },
				func(At[int]) int { return 0 },
				func(l, r At[int]) (int, bool) { panic("udf exploded") })
			AddSink(q, "sink", j, Discard[int]())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQuery("panic-" + tc.name)
			tc.build(q)
			err := q.Run(context.Background())
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("Run() = %v, want ErrPanic", err)
			}
			if !strings.Contains(err.Error(), `"boom"`) {
				t.Fatalf("error %q does not name the panicking operator", err)
			}
			if !strings.Contains(err.Error(), "udf exploded") {
				t.Fatalf("error %q does not carry the panic value", err)
			}
		})
	}
}

// TestPanicDoesNotWedgeNeighbours: after one operator panics, the rest of
// the DAG must observe cancellation/end-of-stream and Run must return — no
// stuck goroutines waiting on channels the dead operator will never close.
func TestPanicDoesNotWedgeNeighbours(t *testing.T) {
	q := NewQuery("panic-wedge")
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[int]) error {
		for i := 0; ; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
	})
	m := Map(q, "boom", src, func(v int) (int, error) {
		if v == 10 {
			panic("mid-stream panic")
		}
		return v, nil
	})
	AddSink(q, "sink", m, Discard[int]())

	done := make(chan error, 1)
	go func() { done <- q.Run(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("Run() = %v, want ErrPanic", err)
		}
	case <-timeoutC(t):
		t.Fatal("Run did not return after an operator panicked")
	}
}

// TestPanicInOneQueryLeavesAnotherRunning: queries are isolated — the unit
// the restart policies in core build on.
func TestPanicInOneQueryLeavesAnotherRunning(t *testing.T) {
	bad := NewQuery("bad")
	bsrc := AddSource(bad, "src", FromSlice([]int{1}))
	AddSink(bad, "sink", bsrc, func(int) error { panic("bad query") })

	good := NewQuery("good")
	gsrc := AddSource(good, "src", FromSlice([]int{1, 2, 3}))
	var got []int
	AddSink(good, "sink", gsrc, ToSlice(&got))

	goodDone := make(chan error, 1)
	go func() { goodDone <- good.Run(context.Background()) }()

	if err := bad.Run(context.Background()); !errors.Is(err, ErrPanic) {
		t.Fatalf("bad.Run() = %v, want ErrPanic", err)
	}
	select {
	case err := <-goodDone:
		if err != nil {
			t.Fatalf("good.Run() = %v, want nil", err)
		}
	case <-timeoutC(t):
		t.Fatal("good query did not finish")
	}
	if len(got) != 3 {
		t.Fatalf("good query delivered %d tuples, want 3", len(got))
	}
}
