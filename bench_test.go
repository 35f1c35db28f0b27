// Package strata_test holds the figure-regeneration benchmarks: one
// testing.B benchmark per figure of the paper's evaluation (Figures 4-7)
// plus the ablation benches DESIGN.md calls out. The full experiment
// harness with the paper's exact sweeps lives in cmd/strata-bench; these
// benches exercise the same code paths at a CI-friendly scale.
package strata_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/cluster"
	"strata/internal/core"
)

// benchImagePx scales the OT images for benchmarking (paper: 2000).
const benchImagePx = 500

// renderedReplay caches one rendered build across benchmarks.
var renderedReplay []amsim.LayerData

func replayForBench(b *testing.B, layers int) ([]amsim.LayerData, float64) {
	b.Helper()
	layout := amsim.ScaledLayout(benchImagePx)
	if len(renderedReplay) < layers {
		job, err := amsim.NewJob("bench", layout, 2022)
		if err != nil {
			b.Fatal(err)
		}
		replay, err := bench.Replay(job, layers)
		if err != nil {
			b.Fatal(err)
		}
		renderedReplay = replay
	}
	return renderedReplay[:layers], layout.LayerMM
}

// runPipeline executes one full pipeline pass and reports cells/s and
// images/s metrics.
func runPipeline(b *testing.B, replay []amsim.LayerData, layerMM float64, params bench.PipelineParams) {
	b.Helper()
	var cells, images int64
	var latSum time.Duration
	var latN int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := bench.RunOnce(context.Background(), replay, layerMM, params,
			bench.FeedMode{}, len(replay)+8, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		cells += stats.CellsProcessed
		images += int64(stats.Layers)
		for _, l := range stats.Latencies {
			latSum += l
			latN++
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(cells)/sec, "cells/s")
		b.ReportMetric(float64(images)/sec, "images/s")
	}
	if latN > 0 {
		b.ReportMetric(float64(latSum.Microseconds())/float64(latN), "latency-µs")
	}
}

// BenchmarkFig5CellSize regenerates Figure 5's x-axis: pipeline cost as the
// cell edge shrinks from 40×40 to 2×2 paper pixels.
func BenchmarkFig5CellSize(b *testing.B) {
	replay, layerMM := replayForBench(b, 12)
	for _, paperPx := range []int{40, 30, 20, 10, 5, 2} {
		edge := paperPx * benchImagePx / amsim.DefaultImagePx
		if edge < 1 {
			edge = 1
		}
		b.Run(fmt.Sprintf("cell%dx%d", paperPx, paperPx), func(b *testing.B) {
			runPipeline(b, replay, layerMM, bench.PipelineParams{
				CellEdgePx: edge, L: 10, Parallelism: 4,
			})
		})
	}
}

// BenchmarkFig6LayerWindow regenerates Figure 6's x-axis: pipeline cost as
// the correlateEvents window L grows from 5 to 80 layers.
func BenchmarkFig6LayerWindow(b *testing.B) {
	replay, layerMM := replayForBench(b, 90)
	edge := 20 * benchImagePx / amsim.DefaultImagePx
	for _, l := range []int{5, 10, 20, 40, 80} {
		b.Run(fmt.Sprintf("L%d", l), func(b *testing.B) {
			runPipeline(b, replay, layerMM, bench.PipelineParams{
				CellEdgePx: edge, L: l, Parallelism: 4,
			})
		})
	}
}

// BenchmarkFig7Throughput regenerates Figure 7's saturation measurement:
// as-fast-as-possible replay for the 20×20 and 10×10 cell sizes; the
// cells/s metric is the figure's y-axis plateau.
func BenchmarkFig7Throughput(b *testing.B) {
	replay, layerMM := replayForBench(b, 20)
	for _, paperPx := range []int{20, 10} {
		edge := paperPx * benchImagePx / amsim.DefaultImagePx
		if edge < 1 {
			edge = 1
		}
		b.Run(fmt.Sprintf("cell%dx%d", paperPx, paperPx), func(b *testing.B) {
			runPipeline(b, replay, layerMM, bench.PipelineParams{
				CellEdgePx: edge, L: 10, Parallelism: 4,
			})
		})
	}
}

// BenchmarkFig4Clustering regenerates Figure 4's computational core: DBSCAN
// over the hot/cold cells of an L-layer window of one specimen.
func BenchmarkFig4Clustering(b *testing.B) {
	// Event sets of growing size, as produced by deeper windows.
	for _, n := range []int{100, 1000, 10000} {
		rng := rand.New(rand.NewSource(4))
		pts := make([]cluster.Point, n)
		for i := range pts {
			// Clustered around a handful of defect columns plus noise.
			if i%4 == 0 {
				pts[i] = cluster.Point{X: rng.Float64() * 25, Y: rng.Float64() * 50, Z: rng.Float64()}
			} else {
				site := float64(i % 7)
				pts[i] = cluster.Point{
					X: 3*site + rng.NormFloat64()*0.5,
					Y: 6*site + rng.NormFloat64()*0.5,
					Z: rng.Float64() * 0.4,
				}
			}
		}
		b.Run(fmt.Sprintf("events%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.DBSCAN(pts, 1.0, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkDBSCANIndex compares grid-indexed DBSCAN against the naive O(n²)
// variant.
func BenchmarkDBSCANIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 3000
	pts := make([]cluster.Point, n)
	for i := range pts {
		pts[i] = cluster.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DBSCAN(pts, 2, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DBSCANNaive(pts, 2, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterDBSCANvsKMeans compares the paper's DBSCAN choice against
// the k-means baseline of earlier defect-detection work.
func BenchmarkClusterDBSCANvsKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const n = 2000
	pts := make([]cluster.Point, n)
	for i := range pts {
		c := float64(i % 5)
		pts[i] = cluster.Point{X: 10*c + rng.NormFloat64(), Y: 10*c + rng.NormFloat64()}
	}
	b.Run("dbscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DBSCAN(pts, 2, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmeans-k5", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := cluster.KMeans(pts, 5, 25, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineParallelism sweeps the stage replication degree — the
// knob STRATA exposes because disjoint layer portions can be processed
// independently.
func BenchmarkPipelineParallelism(b *testing.B) {
	replay, layerMM := replayForBench(b, 10)
	edge := 10 * benchImagePx / amsim.DefaultImagePx
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			runPipeline(b, replay, layerMM, bench.PipelineParams{
				CellEdgePx: edge, L: 10, Parallelism: par,
			})
		})
	}
}

// BenchmarkFuseModes compares same-τ fusion against windowed fusion (the
// fuse method's two forms in Table 1).
func BenchmarkFuseModes(b *testing.B) {
	const layers = 2000
	build := func(b *testing.B, opts ...core.FuseOption) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fw, err := core.New(core.WithStoreDir(b.TempDir()))
			if err != nil {
				b.Fatal(err)
			}
			mk := func(key string) core.CollectFunc {
				return func(ctx context.Context, emit func(core.EventTuple) error) error {
					base := time.UnixMicro(0)
					for l := 1; l <= layers; l++ {
						err := emit(core.EventTuple{
							TS:    base.Add(time.Duration(l) * time.Second),
							Job:   "j",
							Layer: l,
							KV:    map[string]any{key: int64(l)},
						})
						if err != nil {
							return err
						}
					}
					return nil
				}
			}
			s1 := fw.AddSource("a", mk("a"))
			s2 := fw.AddSource("b", mk("b"))
			fused := fw.Fuse("f", s1, s2, opts...)
			count := 0
			fw.Deliver("out", fused, func(core.EventTuple) error {
				count++
				return nil
			})
			if err := fw.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			if count != layers {
				b.Fatalf("fused %d, want %d", count, layers)
			}
			fw.Close()
		}
		b.ReportMetric(float64(layers*b.N)/b.Elapsed().Seconds(), "fusions/s")
	}
	b.Run("sameTau", func(b *testing.B) { build(b) })
	b.Run("windowed", func(b *testing.B) { build(b, core.FuseWindow(time.Second/2)) })
}
