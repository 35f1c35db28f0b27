package stream

import (
	"fmt"
	"testing"
)

func TestBuiltinAggregators(t *testing.T) {
	items := []keyed{
		{1, "a", 4}, {2, "a", 1}, {3, "a", 7}, {12, "a", 100},
	}
	run := func(t *testing.T, check func(q *Query, in *Stream[keyed])) {
		t.Helper()
		q := NewQuery("agg")
		src := AddSource(q, "src", FromSlice(items))
		check(q, src)
		if err := runQuery(t, q); err != nil {
			t.Fatal(err)
		}
	}
	keyFn := func(v keyed) string { return v.key }
	valFn := func(v keyed) int { return v.val }

	t.Run("count", func(t *testing.T) {
		var got []WindowValue[string, int]
		run(t, func(q *Query, in *Stream[keyed]) {
			agg := Aggregate(q, "count", in, Tumbling(10), keyFn, Count[string, keyed]())
			AddSink(q, "sink", agg, ToSlice(&got))
		})
		if len(got) != 2 || got[0].Value != 3 || got[1].Value != 1 {
			t.Fatalf("count windows = %+v", got)
		}
		if got[0].EventTime() != got[0].End {
			t.Fatal("WindowValue event time must be the window end")
		}
	})
	t.Run("sum", func(t *testing.T) {
		var got []WindowValue[string, int]
		run(t, func(q *Query, in *Stream[keyed]) {
			agg := Aggregate(q, "sum", in, Tumbling(10), keyFn, Sum[string](valFn))
			AddSink(q, "sink", agg, ToSlice(&got))
		})
		if got[0].Value != 12 || got[1].Value != 100 {
			t.Fatalf("sum windows = %+v", got)
		}
	})
	t.Run("min", func(t *testing.T) {
		var got []WindowValue[string, int]
		run(t, func(q *Query, in *Stream[keyed]) {
			agg := Aggregate(q, "min", in, Tumbling(10), keyFn, Min[string](valFn))
			AddSink(q, "sink", agg, ToSlice(&got))
		})
		if got[0].Value != 1 {
			t.Fatalf("min = %+v", got)
		}
	})
	t.Run("max", func(t *testing.T) {
		var got []WindowValue[string, int]
		run(t, func(q *Query, in *Stream[keyed]) {
			agg := Aggregate(q, "max", in, Tumbling(10), keyFn, Max[string](valFn))
			AddSink(q, "sink", agg, ToSlice(&got))
		})
		if got[0].Value != 7 {
			t.Fatalf("max = %+v", got)
		}
	})
	t.Run("mean", func(t *testing.T) {
		var got []WindowValue[string, float64]
		run(t, func(q *Query, in *Stream[keyed]) {
			agg := Aggregate(q, "mean", in, Tumbling(10), keyFn, Mean[string](func(v keyed) float64 { return float64(v.val) }))
			AddSink(q, "sink", agg, ToSlice(&got))
		})
		if got[0].Value != 4 {
			t.Fatalf("mean = %+v", got)
		}
	})
}

func TestProcessOnEndFlush(t *testing.T) {
	q := NewQuery("process")
	src := AddSource(q, "src", FromSlice(ints(5)))
	sum := 0
	out := Process(q, "acc", src,
		func(v At[int], emit Emit[int]) error {
			sum += v.Val
			return nil
		},
		func(emit Emit[int]) error { return emit(sum) }, nil)
	var got []int
	AddSink(q, "sink", out, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[10]" {
		t.Fatalf("got %v, want [10]", got)
	}
}

func TestProcessNilOnEnd(t *testing.T) {
	q := NewQuery("process2")
	src := AddSource(q, "src", FromSlice(ints(3)))
	out := Process(q, "id", src,
		func(v At[int], emit Emit[At[int]]) error { return emit(v) }, nil, nil)
	var got []At[int]
	AddSink(q, "sink", out, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
}
