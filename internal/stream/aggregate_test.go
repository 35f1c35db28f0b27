package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"strata/internal/testseed"
)

// keyed is a tuple with a group-by key, used throughout the windowing tests.
type keyed struct {
	ts  int64
	key string
	val int
}

func (k keyed) EventTime() int64 { return k.ts }

// sumWindows runs an Aggregate over items and returns one "k@[start,end)=sum"
// string per closed window, in flush order.
func sumWindows(t *testing.T, items []keyed, spec WindowSpec) []string {
	t.Helper()
	q := NewQuery("agg")
	src := AddSource(q, "src", FromSlice(items))
	agg := Aggregate(q, "sum", src, spec,
		func(v keyed) string { return v.key },
		func(w Window[string, keyed], emit Emit[string]) error {
			sum := 0
			for _, v := range w.Tuples {
				sum += v.val
			}
			return emit(fmt.Sprintf("%s@[%d,%d)=%d", w.Key, w.Start, w.End, sum))
		})
	var got []string
	AddSink(q, "sink", agg, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	return got
}

func TestAggregateTumbling(t *testing.T) {
	items := []keyed{
		{0, "a", 1}, {5, "a", 2}, {10, "a", 4}, {19, "a", 8}, {20, "a", 16},
	}
	got := sumWindows(t, items, Tumbling(10))
	want := []string{"a@[0,10)=3", "a@[10,20)=12", "a@[20,30)=16"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateSliding(t *testing.T) {
	// WS=10, WA=5: each tuple belongs to two windows.
	items := []keyed{{0, "a", 1}, {7, "a", 2}, {12, "a", 4}, {30, "a", 8}}
	got := sumWindows(t, items, WindowSpec{Size: 10, Advance: 5})
	want := []string{
		"a@[-5,5)=1",  // contains ts 0
		"a@[0,10)=3",  // ts 0, 7
		"a@[5,15)=6",  // ts 7, 12
		"a@[10,20)=4", // ts 12
		"a@[25,35)=8", // ts 30
		"a@[30,40)=8", // ts 30
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	items := []keyed{
		{1, "a", 1}, {2, "b", 10}, {3, "a", 2}, {4, "b", 20}, {11, "a", 100},
	}
	got := sumWindows(t, items, Tumbling(10))
	// Both [0,10) windows flush when ts=11 arrives, in creation order
	// (a's window was created first).
	want := []string{"a@[0,10)=3", "b@[0,10)=30", "a@[10,20)=100"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateLateTupleDropped(t *testing.T) {
	// ts=25 flushes [0,10) and [10,20); the late ts=5 tuple must not
	// resurrect its window.
	items := []keyed{{1, "a", 1}, {25, "a", 2}, {5, "a", 100}}
	got := sumWindows(t, items, Tumbling(10))
	want := []string{"a@[0,10)=1", "a@[20,30)=2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateSlackToleratesDisorder(t *testing.T) {
	// With Slack=10, the ts=5 tuple arriving after ts=12 still lands in
	// [0,10) because the window is held open until maxTS ≥ end+slack.
	items := []keyed{{1, "a", 1}, {12, "a", 2}, {5, "a", 100}, {30, "a", 4}}
	got := sumWindows(t, items, WindowSpec{Size: 10, Advance: 10, Slack: 10})
	want := []string{"a@[0,10)=101", "a@[10,20)=2", "a@[30,40)=4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateNegativeTimestamps(t *testing.T) {
	items := []keyed{{-15, "a", 1}, {-5, "a", 2}, {5, "a", 4}}
	got := sumWindows(t, items, Tumbling(10))
	want := []string{"a@[-20,-10)=1", "a@[-10,0)=2", "a@[0,10)=4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateBadWindowSpec(t *testing.T) {
	for _, spec := range []WindowSpec{{Size: 0, Advance: 1}, {Size: 1, Advance: 0}, {Size: -1, Advance: -1}} {
		q := NewQuery("badspec")
		src := AddSource(q, "src", FromSlice([]keyed{}))
		Aggregate(q, "agg", src, spec,
			func(v keyed) string { return v.key },
			func(w Window[string, keyed], emit Emit[string]) error { return nil })
		if err := q.Err(); !errors.Is(err, ErrBadWindow) {
			t.Errorf("spec %+v: Err() = %v, want ErrBadWindow", spec, err)
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	got := sumWindows(t, nil, Tumbling(10))
	if len(got) != 0 {
		t.Fatalf("windows = %v, want none", got)
	}
}

func TestAggregateUDFErrorPropagates(t *testing.T) {
	sentinel := errors.New("agg failed")
	q := NewQuery("aggerr")
	src := AddSource(q, "src", FromSlice([]keyed{{1, "a", 1}}))
	agg := Aggregate(q, "agg", src, Tumbling(10),
		func(v keyed) string { return v.key },
		func(w Window[string, keyed], emit Emit[string]) error { return sentinel })
	AddSink(q, "sink", agg, Discard[string]())
	if err := runQuery(t, q); !errors.Is(err, sentinel) {
		t.Fatalf("Run() error = %v, want sentinel", err)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 10, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestAggregatePropertyCountPreserved checks, over random in-order inputs and
// window geometries, two invariants of the windowing logic:
//  1. every tuple is counted in exactly ceil(WS/WA) windows (no slack, all
//     tuples in order, so nothing may be dropped), and
//  2. each window's tuple count equals a reference count computed directly
//     from the definition [l*WA, l*WA+WS).
func TestAggregatePropertyCountPreserved(t *testing.T) {
	type winCount struct {
		key   string
		start int64
		n     int
	}
	prop := func(seed int64, nTuples uint8, wsRaw, waRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := int64(wsRaw%20) + 1
		wa := int64(waRaw%20) + 1
		keys := []string{"a", "b", "c"}
		items := make([]keyed, int(nTuples))
		ts := int64(0)
		for i := range items {
			ts += rng.Int63n(5) // non-decreasing
			items[i] = keyed{ts: ts, key: keys[rng.Intn(len(keys))], val: 1}
		}

		q := NewQuery("prop")
		src := AddSource(q, "src", FromSlice(items))
		var got []winCount
		agg := Aggregate(q, "agg", src, WindowSpec{Size: ws, Advance: wa},
			func(v keyed) string { return v.key },
			func(w Window[string, keyed], emit Emit[winCount]) error {
				return emit(winCount{key: w.Key, start: w.Start, n: len(w.Tuples)})
			})
		AddSink(q, "sink", agg, ToSlice(&got))
		if err := q.Run(context.Background()); err != nil {
			t.Logf("Run() error = %v", err)
			return false
		}

		// Reference: assign each tuple to windows by definition.
		ref := map[string]int{}
		for _, it := range items {
			lMin := floorDiv(it.ts-ws, wa) + 1
			lMax := floorDiv(it.ts, wa)
			for l := lMin; l <= lMax; l++ {
				ref[fmt.Sprintf("%s/%d", it.key, l*wa)]++
			}
		}
		gotMap := map[string]int{}
		for _, w := range got {
			gotMap[fmt.Sprintf("%s/%d", w.key, w.start)] += w.n
		}
		if len(ref) != len(gotMap) {
			t.Logf("window sets differ: ref=%d got=%d", len(ref), len(gotMap))
			return false
		}
		refKeys := make([]string, 0, len(ref))
		for k := range ref {
			refKeys = append(refKeys, k)
		}
		sort.Strings(refKeys)
		for _, k := range refKeys {
			if ref[k] != gotMap[k] {
				t.Logf("window %s: ref=%d got=%d", k, ref[k], gotMap[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 60)); err != nil {
		t.Fatal(err)
	}
}
