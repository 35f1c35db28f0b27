package stream

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"strata/internal/testseed"
)

func sortedVals(items []At[int]) []int {
	out := make([]int, len(items))
	for i, v := range items {
		out[i] = v.Val
	}
	sort.Ints(out)
	return out
}

func TestShuffleMergeRoundTrip(t *testing.T) {
	const n = 1000
	q := NewQuery("shufflemerge")
	src := AddSource(q, "src", FromSlice(ints(n)))
	branches := Shuffle(q, "shuffle", src, 4, func(v At[int]) uint64 { return uint64(v.Val) })
	outs := make([]*Stream[At[int]], len(branches))
	for i, b := range branches {
		outs[i] = Map(q, "id"+string(rune('0'+i)), b, func(v At[int]) (At[int], error) { return v, nil })
	}
	merged := Merge(q, "merge", outs)
	var got []At[int]
	AddSink(q, "sink", merged, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != n {
		t.Fatalf("got %d tuples, want %d", len(got), n)
	}
	vals := sortedVals(got)
	for i, v := range vals {
		if v != i {
			t.Fatalf("vals[%d] = %d, want %d (tuple lost or duplicated)", i, v, i)
		}
	}
}

func TestShuffleRouting(t *testing.T) {
	// With hash = value, each branch must see only values ≡ branch (mod n).
	const n = 3
	q := NewQuery("routing")
	src := AddSource(q, "src", FromSlice(ints(300)))
	branches := Shuffle(q, "shuffle", src, n, func(v At[int]) uint64 { return uint64(v.Val) })
	results := make([][]At[int], n)
	for i, b := range branches {
		i := i
		AddSink(q, "sink"+string(rune('0'+i)), b, func(v At[int]) error {
			results[i] = append(results[i], v)
			return nil
		})
	}
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	for i, res := range results {
		if len(res) != 100 {
			t.Errorf("branch %d got %d tuples, want 100", i, len(res))
		}
		for _, v := range res {
			if v.Val%n != i {
				t.Fatalf("branch %d received value %d", i, v.Val)
			}
		}
	}
}

func TestShuffleBranchPreservesOrder(t *testing.T) {
	q := NewQuery("branchorder")
	src := AddSource(q, "src", FromSlice(ints(500)))
	branches := Shuffle(q, "shuffle", src, 2, func(v At[int]) uint64 { return uint64(v.Val) })
	for i, b := range branches {
		AddSink(q, "sink"+string(rune('0'+i)), b, func() SinkFunc[At[int]] {
			last := int64(-1)
			return func(v At[int]) error {
				if v.TS <= last {
					t.Errorf("branch order violated: ts %d after %d", v.TS, last)
				}
				last = v.TS
				return nil
			}
		}())
	}
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
}

func TestFanoutDuplicates(t *testing.T) {
	q := NewQuery("fanout")
	src := AddSource(q, "src", FromSlice(ints(50)))
	copies := Fanout(q, "fan", src, 3)
	var sums [3]int
	for i, c := range copies {
		i := i
		AddSink(q, "sink"+string(rune('0'+i)), c, func(v At[int]) error {
			sums[i] += v.Val
			return nil
		})
	}
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	want := 49 * 50 / 2
	for i, s := range sums {
		if s != want {
			t.Errorf("copy %d sum = %d, want %d", i, s, want)
		}
	}
}

// shuffleFlatMapMerge runs fn on n hash-shuffled branches of in and merges
// the results in arrival order: the data-parallel shape core compiles a
// Parallelism > 1 stage to.
func shuffleFlatMapMerge[In, Out any](q *Query, name string, in *Stream[In], n int, hash HashFunc[In], fn FlatMapFunc[In, Out]) *Stream[Out] {
	branches := Shuffle(q, name+".shuffle", in, n, hash)
	outs := make([]*Stream[Out], n)
	for i, b := range branches {
		outs[i] = FlatMap(q, fmt.Sprintf("%s.%d", name, i), b, fn)
	}
	return Merge(q, name+".merge", outs)
}

func TestShuffleFlatMapMergeEquivalentToSequential(t *testing.T) {
	fn := func(v At[int], emit Emit[At[int]]) error {
		if v.Val%3 == 0 {
			return nil // drop multiples of three
		}
		return emit(At[int]{TS: v.TS, Val: v.Val * v.Val})
	}
	run := func(par int) []int {
		q := NewQuery("pfm")
		src := AddSource(q, "src", FromSlice(ints(200)))
		var out *Stream[At[int]]
		if par == 1 {
			out = FlatMap(q, "op", src, fn)
		} else {
			out = shuffleFlatMapMerge(q, "op", src, par, func(v At[int]) uint64 { return uint64(v.Val) }, fn)
		}
		var got []At[int]
		AddSink(q, "sink", out, ToSlice(&got))
		if err := runQuery(t, q); err != nil {
			t.Fatalf("Run() error = %v", err)
		}
		return sortedVals(got)
	}
	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("parallel output size %d != sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("output mismatch at %d: %d != %d", i, par[i], seq[i])
		}
	}
}

// TestShufflePropertyPartitionDisjoint checks with random hash functions that
// shuffling partitions the input into disjoint subsets covering everything.
func TestShufflePropertyPartitionDisjoint(t *testing.T) {
	prop := func(mult uint64, nBranches uint8) bool {
		n := int(nBranches%7) + 1
		q := NewQuery("prop")
		src := AddSource(q, "src", FromSlice(ints(100)))
		branches := Shuffle(q, "shuffle", src, n, func(v At[int]) uint64 { return uint64(v.Val) * (mult | 1) })
		collected := make([][]At[int], n)
		for i, b := range branches {
			i := i
			AddSink(q, "sink"+string(rune('a'+i)), b, func(v At[int]) error {
				collected[i] = append(collected[i], v)
				return nil
			})
		}
		if err := q.Run(context.Background()); err != nil {
			return false
		}
		seen := make(map[int]int)
		total := 0
		for _, c := range collected {
			for _, v := range c {
				seen[v.Val]++
				total++
			}
		}
		if total != 100 || len(seen) != 100 {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 30)); err != nil {
		t.Fatal(err)
	}
}
