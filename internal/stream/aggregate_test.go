package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"strata/internal/testseed"
)

// keyed is a tuple with a group-by key, used throughout the windowing tests.
type keyed struct {
	ts  int64
	key string
	val int
}

func (k keyed) EventTime() int64 { return k.ts }

// paned is a keyed tuple of one pane, or the punctuation closing that pane.
type paned struct {
	key   string
	pane  int
	close bool
	val   int
}

func panedKey(v paned) string { return v.key }

func panedPane(v paned) (int, bool) { return v.pane, v.close }

func data(key string, pane, val int) paned { return paned{key: key, pane: pane, val: val} }

func punct(key string, pane int) paned { return paned{key: key, pane: pane, close: true} }

// sumWindows runs an Aggregate of l panes over items and returns one
// "k@pane=sum" string per closed window, in close order.
func sumWindows(t *testing.T, items []paned, l int) []string {
	t.Helper()
	q := NewQuery("agg")
	src := AddSource(q, "src", FromSlice(items))
	agg := Aggregate(q, "sum", src, l, panedKey, panedPane,
		func(w Window[string, paned], emit Emit[string]) error {
			sum := 0
			for _, v := range w.Tuples {
				sum += v.val
			}
			return emit(fmt.Sprintf("%s@%d=%d", w.Key, w.Pane, sum))
		})
	var got []string
	AddSink(q, "sink", agg, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	return got
}

func checkWindows(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestAggregateSinglePane(t *testing.T) {
	items := []paned{
		data("a", 1, 1), data("a", 1, 2), punct("a", 1),
		data("a", 2, 4), data("a", 2, 8), punct("a", 2),
		data("a", 3, 16), // closed by the end of the stream
	}
	checkWindows(t, sumWindows(t, items, 1), "a@1=3", "a@2=12", "a@3=16")
}

func TestAggregateSliding(t *testing.T) {
	items := []paned{
		data("a", 1, 1), punct("a", 1),
		data("a", 2, 2), punct("a", 2),
		data("a", 3, 4), punct("a", 3),
		data("a", 4, 8), punct("a", 4), punct("a", 4), // a duplicate
		data("a", 5, 16), punct("a", 7), // panes 5..7; 6 and 7 are empty
	}
	checkWindows(t, sumWindows(t, items, 3), "a@1=1", "a@2=3", "a@3=7", "a@4=14", "a@7=16")
}

func TestAggregateGroupBy(t *testing.T) {
	items := []paned{
		data("a", 1, 1), data("b", 1, 10), data("a", 1, 2), data("b", 2, 20),
		punct("b", 1), punct("a", 1), data("a", 2, 100),
	}
	// Each key closes on its own punctuation; the end of the stream closes
	// the rest in first-seen key order.
	checkWindows(t, sumWindows(t, items, 1), "b@1=10", "a@1=3", "a@2=100", "b@2=20")
}

func TestAggregateLateTupleDropped(t *testing.T) {
	// Closing pane 2 evicts pane 1, so the late pane-1 tuple reaches no
	// window and must not resurrect one.
	items := []paned{
		data("a", 1, 1), punct("a", 1),
		data("a", 2, 2), punct("a", 2),
		data("a", 1, 100),
		data("a", 3, 4), punct("a", 3),
	}
	checkWindows(t, sumWindows(t, items, 2), "a@1=1", "a@2=3", "a@3=6")
}

func TestAggregatePunctuationToleratesDisorder(t *testing.T) {
	// Tuples of open panes may interleave: each lands in its own pane until
	// punctuation closes it.
	items := []paned{
		data("a", 1, 1), data("a", 2, 2), data("a", 1, 100), punct("a", 1),
		data("a", 2, 4), punct("a", 2),
	}
	checkWindows(t, sumWindows(t, items, 1), "a@1=101", "a@2=6")
}

func TestAggregatePanesStartAtOne(t *testing.T) {
	// Punctuation at pane 0 or below is a duplicate of the initial state,
	// and a buffered pane 0 is not past it, so neither closes a window.
	items := []paned{punct("a", 0), punct("a", -1), data("a", 0, 5)}
	checkWindows(t, sumWindows(t, items, 2))
	items = append(items, data("a", 1, 1), punct("a", 1))
	checkWindows(t, sumWindows(t, items, 2), "a@1=6")
}

func TestAggregateBadWindowLength(t *testing.T) {
	for _, l := range []int{0, -1} {
		q := NewQuery("badspec")
		src := AddSource(q, "src", FromSlice([]paned{}))
		Aggregate(q, "agg", src, l, panedKey, panedPane,
			func(w Window[string, paned], emit Emit[string]) error { return nil })
		if err := q.Err(); !errors.Is(err, ErrBadWindow) {
			t.Errorf("l=%d: Err() = %v, want ErrBadWindow", l, err)
		}
	}
	q := NewQuery("nilpane")
	src := AddSource(q, "src", FromSlice([]paned{}))
	Aggregate(q, "agg", src, 1, panedKey, nil,
		func(w Window[string, paned], emit Emit[string]) error { return nil })
	if err := q.Err(); !errors.Is(err, ErrNilUDF) {
		t.Errorf("nil PaneFunc: Err() = %v, want ErrNilUDF", err)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	checkWindows(t, sumWindows(t, nil, 1))
}

func TestAggregateUDFErrorPropagates(t *testing.T) {
	sentinel := errors.New("agg failed")
	q := NewQuery("aggerr")
	src := AddSource(q, "src", FromSlice([]paned{data("a", 1, 1), punct("a", 1)}))
	agg := Aggregate(q, "agg", src, 1, panedKey, panedPane,
		func(w Window[string, paned], emit Emit[string]) error { return sentinel })
	AddSink(q, "sink", agg, Discard[string]())
	if err := runQuery(t, q); !errors.Is(err, sentinel) {
		t.Fatalf("Run() error = %v, want sentinel", err)
	}
}

// paneModel is the reference the paned Aggregate is checked against: a map
// of key to pane to tuples, closed and evicted by the definition.
type paneModel struct {
	l      int
	order  []string
	closed map[string]int
	panes  map[string]map[int][]int
	out    []string
}

func (m *paneModel) ingest(v paned) {
	if m.panes[v.key] == nil {
		m.order = append(m.order, v.key)
		m.panes[v.key] = map[int][]int{}
	}
	if !v.close {
		m.panes[v.key][v.pane] = append(m.panes[v.key][v.pane], v.val)
	} else if v.pane > m.closed[v.key] {
		m.close(v.key, v.pane, v.val)
	}
}

func (m *paneModel) close(k string, p, by int) {
	m.closed[k] = p
	var vals []int
	for q := p - m.l + 1; q <= p; q++ {
		vals = append(vals, m.panes[k][q]...)
	}
	for q := range m.panes[k] {
		if q <= p-m.l+1 {
			delete(m.panes[k], q)
		}
	}
	m.out = append(m.out, fmt.Sprintf("%s@%d/%d:%v", k, p, by, vals))
}

func (m *paneModel) finish() {
	for _, k := range m.order {
		last := 0
		for q := range m.panes[k] {
			last = max(last, q)
		}
		if last > m.closed[k] {
			m.close(k, last, 0)
		}
	}
}

// state renders the model's buffered panes as aggState renders the
// operator's.
func (m *paneModel) state() string {
	var b strings.Builder
	for _, k := range m.order {
		fmt.Fprintf(&b, "%s<=%d", k, m.closed[k])
		var qs []int
		for q := range m.panes[k] {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		for _, q := range qs {
			fmt.Fprintf(&b, " %d:%v", q, m.panes[k][q])
		}
		b.WriteString("; ")
	}
	return b.String()
}

func aggState(a *aggregateOp[paned, string, string]) string {
	var b strings.Builder
	for _, ks := range a.keys {
		fmt.Fprintf(&b, "%s<=%d", ks.Key, ks.LastClosed)
		for _, pb := range ks.Panes {
			vals := make([]int, len(pb.Tuples))
			for i, v := range pb.Tuples {
				vals[i] = v.val
			}
			fmt.Fprintf(&b, " %d:%v", pb.Pane, vals)
		}
		b.WriteString("; ")
	}
	return b.String()
}

// panedInput is a seeded random keyed input: mostly tuples of each key's
// current pane and the punctuation closing it, with duplicate
// punctuation, tuples for panes already closed or evicted (at or below 0
// too), skipped panes, and keys the stream ends without closing.
func panedInput(rng *rand.Rand, keys, n int) []paned {
	cur := make([]int, keys)
	for k := range cur {
		cur[k] = 1
	}
	items := make([]paned, n)
	for i := range items {
		k := rng.Intn(keys)
		key := fmt.Sprintf("k%d", k)
		switch r := rng.Intn(20); {
		case r < 10:
			items[i] = data(key, cur[k], i)
		case r < 12:
			items[i] = data(key, cur[k]-rng.Intn(6), i)
		case r < 16:
			items[i] = paned{key: key, pane: cur[k], close: true, val: i}
			cur[k] += 1 + rng.Intn(2)
		case r < 18:
			items[i] = paned{key: key, pane: cur[k] - 1 - rng.Intn(3), close: true, val: i}
		default:
			cur[k]++
			items[i] = data(key, cur[k], i)
		}
	}
	return items
}

// TestAggregateAgainstModel drives the operator tuple by tuple over seeded
// random inputs and requires, after every tuple, the model's buffered
// panes, and at the end the model's windows in the model's order. A failure
// prints the seed; replay it with -seed.
func TestAggregateAgainstModel(t *testing.T) {
	seed := testseed.Seed(t)
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 300; round++ {
		l := 1 + rng.Intn(4)
		items := panedInput(rng, 1+rng.Intn(3), rng.Intn(80))
		m := &paneModel{l: l, closed: map[string]int{}, panes: map[string]map[int][]int{}}
		a := &aggregateOp[paned, string, string]{
			l: l, key: panedKey, pane: panedPane, index: map[string]*keyPanes[string, paned]{},
			agg: func(w Window[string, paned], emit Emit[string]) error {
				vals := make([]int, len(w.Tuples))
				for i, v := range w.Tuples {
					vals[i] = v.val
				}
				return emit(fmt.Sprintf("%s@%d/%d:%v", w.Key, w.Pane, w.Close.val, vals))
			},
		}
		var got []string
		emit := func(s string) error { got = append(got, s); return nil }
		for i, v := range items {
			m.ingest(v)
			if err := a.ingest(v, emit); err != nil {
				t.Fatal(err)
			}
			if want, have := m.state(), aggState(a); have != want {
				t.Fatalf("seed %d round %d (l=%d): after tuple %d %+v\n panes %s\n model %s\n input %+v",
					seed, round, l, i, v, have, want, items[:i+1])
			}
		}
		m.finish()
		if err := a.flushAll(emit); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(m.out) {
			t.Fatalf("seed %d round %d (l=%d): windows\n got %v\nwant %v\n input %+v", seed, round, l, got, m.out, items)
		}
	}
}
