package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"strata/internal/testseed"
)

// diffInput is a seeded random stream: timestamps never decrease and often
// repeat, and keys come from a small set so windows and join buckets collide.
func diffInput(seed int64, n int) []keyed {
	rng := rand.New(rand.NewSource(seed))
	items := make([]keyed, n)
	ts := int64(0)
	for i := range items {
		ts += int64(rng.Intn(4))
		items[i] = keyed{ts: ts, key: fmt.Sprintf("k%d", rng.Intn(5)), val: rng.Intn(100)}
	}
	return items
}

func keyOf(v keyed) string { return v.key }

// keyedPane puts a keyed tuple in pane ts/8+1; a tuple whose val is a
// multiple of 5 is instead the punctuation that closes that pane.
func keyedPane(v keyed) (int, bool) { return int(v.ts/8) + 1, v.val%5 == 0 }

func winString(w Window[string, keyed], emit Emit[string]) error {
	sum := 0
	for _, v := range w.Tuples {
		sum += v.val
	}
	return emit(fmt.Sprintf("%s@%d/%d=%d/%d", w.Key, w.Pane, w.Close.ts, sum, len(w.Tuples)))
}

// TestBatchDifferential runs every kept operator on the same seeded random
// input twice — one tuple per chunk (withQueryBatch(1)) and the default
// chunk size — and requires identical output. Chunking is a transport
// detail: an operator whose result depends on where chunk boundaries fall
// is broken. Outputs are compared as exact sequences, except where the
// engine promises no order (a Merge of shuffle branches, a join whose two
// inputs interleave as they arrive), which compare as multisets. A failure
// prints its seed; replay it with -seed.
func TestBatchDifferential(t *testing.T) {
	seed := testseed.Seed(t)
	items := diffInput(seed, 3000)
	var left, right []keyed
	for i, v := range items {
		if i%3 == 0 {
			right = append(right, v)
		} else {
			left = append(left, v)
		}
	}

	rows := []struct {
		name      string
		unordered bool
		// build wires the operator under test between fresh sources and
		// returns the streams whose outputs are compared, one sink each.
		build func(q *Query) []*Stream[string]
	}{
		{name: "map", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			return []*Stream[string]{Map(q, "map", src, func(v keyed) (string, error) {
				return fmt.Sprintf("%d:%s:%d", v.ts, v.key, v.val*3), nil
			})}
		}},
		{name: "filter", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			kept := Filter(q, "filter", src, func(v keyed) (bool, error) { return v.val%3 != 0, nil })
			return []*Stream[string]{Map(q, "fmt", kept, fmtKeyed)}
		}},
		{name: "flatmap", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			return []*Stream[string]{FlatMap(q, "flatmap", src, func(v keyed, emit Emit[string]) error {
				for i := 0; i < v.val%3; i++ {
					if err := emit(fmt.Sprintf("%d:%s#%d", v.ts, v.key, i)); err != nil {
						return err
					}
				}
				return nil
			})}
		}},
		{name: "process", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			sums := map[string]int{}
			return []*Stream[string]{Process(q, "process", src,
				func(v keyed, emit Emit[string]) error {
					sums[v.key] += v.val
					if sums[v.key]%7 == 0 {
						return emit(fmt.Sprintf("%d:%s=%d", v.ts, v.key, sums[v.key]))
					}
					return nil
				},
				func(emit Emit[string]) error { return emit(fmt.Sprint(sums)) }, nil)}
		}},
		{name: "aggregate-tumbling", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			return []*Stream[string]{Aggregate(q, "agg", src, 1, keyOf, keyedPane, winString)}
		}},
		{name: "aggregate-sliding", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			return []*Stream[string]{Aggregate(q, "agg", src, 3, keyOf, keyedPane, winString)}
		}},
		{name: "join", unordered: true, build: func(q *Query) []*Stream[string] {
			ls := AddSource(q, "left", FromSlice(left))
			rs := AddSource(q, "right", FromSlice(right))
			return []*Stream[string]{Join(q, "join", ls, rs, 3, keyOf, keyOf,
				func(l, r keyed) (string, bool) {
					return fmt.Sprintf("%s:%d/%d+%d/%d", l.key, l.ts, l.val, r.ts, r.val), (l.val+r.val)%4 != 0
				})}
		}},
		{name: "shuffle-merge", unordered: true, build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			branches := Shuffle(q, "shuffle", src, 4, func(v keyed) uint64 { return uint64(v.val) })
			outs := make([]*Stream[string], len(branches))
			for i, b := range branches {
				outs[i] = Map(q, fmt.Sprintf("fmt%d", i), b, fmtKeyed)
			}
			return []*Stream[string]{Merge(q, "merge", outs)}
		}},
		{name: "fanout", build: func(q *Query) []*Stream[string] {
			src := AddSource(q, "src", FromSlice(items))
			branches := Fanout(q, "fanout", src, 3)
			outs := make([]*Stream[string], len(branches))
			for i, b := range branches {
				outs[i] = Map(q, fmt.Sprintf("fmt%d", i), b, fmtKeyed)
			}
			return outs
		}},
	}

	run := func(t *testing.T, build func(q *Query) []*Stream[string], batch int) [][]string {
		t.Helper()
		q := NewQuery("diff", withQueryBatch(batch))
		outs := build(q)
		got := make([][]string, len(outs))
		for i, s := range outs {
			AddSink(q, fmt.Sprintf("sink%d", i), s, ToSlice(&got[i]))
		}
		if err := runQuery(t, q); err != nil {
			t.Fatalf("seed %d: Run(batch=%d) error = %v", seed, batch, err)
		}
		return got
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			one := run(t, row.build, 1)
			many := run(t, row.build, DefaultBatchSize)
			for i := range one {
				a, b := one[i], many[i]
				if row.unordered {
					a, b = sortedCopy(a), sortedCopy(b)
				}
				if len(a) == 0 {
					t.Fatalf("seed %d: output %d is empty; the row exercises nothing", seed, i)
				}
				if d := firstDiff(a, b); d >= 0 {
					t.Fatalf("seed %d (replay with -seed=%d): output %d differs at %d: batch=1 has %d tuples (%q), batch=%d has %d (%q)",
						seed, seed, i, d, len(a), at(a, d), DefaultBatchSize, len(b), at(b, d))
				}
			}
		})
	}
}

func fmtKeyed(v keyed) (string, error) { return fmt.Sprintf("%d:%s:%d", v.ts, v.key, v.val), nil }

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}
