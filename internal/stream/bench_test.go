package stream

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// benchSource emits n zero-cost tuples.
func benchSource(n int) SourceFunc[At[int]] {
	return func(ctx context.Context, emit Emit[At[int]]) error {
		for i := 0; i < n; i++ {
			if err := emit(At[int]{TS: int64(i), Val: i}); err != nil {
				return err
			}
		}
		return nil
	}
}

func BenchmarkMapThroughput(b *testing.B) {
	const tuples = 100000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewQuery("bench", WithQueryBuffer(1024))
		src := AddSource(q, "src", benchSource(tuples))
		m := Map(q, "map", src, func(v At[int]) (At[int], error) {
			v.Val *= 2
			return v, nil
		})
		AddSink(q, "sink", m, Discard[At[int]]())
		if err := q.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*tuples)/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkPipelineDepth(b *testing.B) {
	// Cost per added stateless stage (channel hop + goroutine).
	const tuples = 50000
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := NewQuery("bench", WithQueryBuffer(1024))
				cur := AddSource(q, "src", benchSource(tuples))
				for d := 0; d < depth; d++ {
					cur = Map(q, fmt.Sprintf("map%d", d), cur, func(v At[int]) (At[int], error) {
						return v, nil
					})
				}
				AddSink(q, "sink", cur, Discard[At[int]]())
				if err := q.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*tuples)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

func BenchmarkAggregatePanes(b *testing.B) {
	const tuples = 100000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewQuery("bench", WithQueryBuffer(1024))
		src := AddSource(q, "src", benchSource(tuples))
		// 16 keys over panes of 100 tuples, each pane closed by its last
		// tuple, in windows of 4 panes.
		agg := Aggregate(q, "agg", src, 4,
			func(v At[int]) int { return v.Val % 16 },
			func(v At[int]) (int, bool) { return int(v.TS/100) + 1, v.TS%100 >= 84 },
			func(w Window[int, At[int]], emit Emit[int]) error { return emit(len(w.Tuples)) })
		AddSink(q, "sink", agg, Discard[int]())
		if err := q.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*tuples)/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkJoinMatched(b *testing.B) {
	const tuples = 20000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewQuery("bench", WithQueryBuffer(1024))
		l := AddSource(q, "l", benchSource(tuples))
		r := AddSource(q, "r", benchSource(tuples))
		key := func(v At[int]) int { return v.Val }
		j := Join(q, "join", l, r, 0, key, key,
			func(lv, rv At[int]) (At[int], bool) { return lv, true })
		AddSink(q, "sink", j, Discard[At[int]]())
		if err := q.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*tuples)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkRegistryOp measures the per-lookup cost of Registry.Op under
// concurrent access — the pattern of many operator goroutines resolving
// their stats handles while an exporter snapshots. The sync.Map-backed
// registry keeps the steady-state lookup lock-free.
func BenchmarkRegistryOp(b *testing.B) {
	var r Registry
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("op%d", i)
		r.Op(names[i]) // pre-register: steady state is pure lookups
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Op(names[i&15]).addIn(1)
			i++
		}
	})
}

// BenchmarkRegistrySnapshotUnderLoad measures Snapshot cost while operators
// keep recording, the exporter's steady-state read path.
func BenchmarkRegistrySnapshotUnderLoad(b *testing.B) {
	var r Registry
	for i := 0; i < 16; i++ {
		s := r.Op(fmt.Sprintf("op%d", i))
		s.addIn(1000)
		s.observeServiceChunk(time.Millisecond, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := r.Snapshot(); len(snap) != 16 {
			b.Fatalf("snapshot size %d", len(snap))
		}
	}
}

func BenchmarkShuffleMerge(b *testing.B) {
	const tuples = 100000
	for _, par := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := NewQuery("bench", WithQueryBuffer(1024))
				src := AddSource(q, "src", benchSource(tuples))
				out := shuffleFlatMapMerge(q, "work", src, par,
					func(v At[int]) uint64 { return uint64(v.Val) },
					func(v At[int], emit Emit[At[int]]) error { return emit(v) })
				AddSink(q, "sink", out, Discard[At[int]]())
				if err := q.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*tuples)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkShedGate measures the cost of the overload machinery on the hot
// path: ungated (the baseline every operator paid before overload protection
// existed), an inert gate with neutral knobs (the zero-cost-off contract),
// and an engaged gate actually checking deadlines per tuple.
func BenchmarkShedGate(b *testing.B) {
	const tuples = 100000
	deadline := time.Now().Add(time.Hour)
	src := func(ctx context.Context, emit Emit[loadTuple]) error {
		for i := 0; i < tuples; i++ {
			if err := emit(loadTuple{TS: int64(i), Val: i, Deadline: deadline}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, mode := range []string{"ungated", "inert", "engaged"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := NewQuery("bench", WithQueryBuffer(1024))
				var opts []OpOption
				if mode != "ungated" {
					opts = append(opts, WithShedGate())
				}
				if mode == "engaged" {
					q.Overload().SetShedLate(true, 0)
				}
				s := AddSource(q, "src", src, opts...)
				AddSink(q, "sink", s, Discard[loadTuple]())
				if err := q.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*tuples)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}
