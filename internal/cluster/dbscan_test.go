package cluster

import (
	"flag"
	"math/rand"
	"testing"
	"time"
)

var dbscanSeed = flag.Int64("seed", 0, "seed for TestDBSCANMatchesNaiveExactly's random inputs (0 picks one from the clock)")

// latticeWindow is a correlate window as the deep-window workload builds
// it: cells on a square lattice in x/y (pitch mm), stacked on layers far
// thinner than eps, so one neighbourhood reaches dozens of layers. keep
// decides per (layer, row, col) whether that cell is an event.
func latticeWindow(layers, side int, pitch, layerMM float64, keep func(l, r, c int) bool) []Point {
	var pts []Point
	for l := 0; l < layers; l++ {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if keep(l, r, c) {
					pts = append(pts, Point{X: float64(c) * pitch, Y: float64(r) * pitch, Z: float64(l) * layerMM, Weight: pitch * pitch})
				}
			}
		}
	}
	return pts
}

// TestDBSCANMatchesNaiveExactly requires the grid-indexed DBSCAN to return
// exactly DBSCANNaive's labels — same cluster IDs, same border assignment —
// not merely an equivalent clustering. Inputs mix uniform clouds, tight
// blobs with duplicate points, and sparse lattices whose z spacing is far
// below eps (the deep correlate window, where every core point reaches
// hundreds of already-labelled points). Lattice geometry puts many border
// points at exactly equal distance from two clusters, so a border point
// moved by a later cluster shows up here. A failure prints its seed;
// replay it with -seed.
func TestDBSCANMatchesNaiveExactly(t *testing.T) {
	seed := *dbscanSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 150; trial++ {
		var pts []Point
		eps := 0.3 + rng.Float64()*2
		minPts := 1 + rng.Intn(8)
		switch trial % 3 {
		case 0:
			pts = make([]Point, 1+rng.Intn(400))
			for i := range pts {
				pts[i] = Point{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 4}
			}
		case 1:
			for b := 1 + rng.Intn(4); b > 0; b-- {
				blobPts := blob(rng, 1+rng.Intn(60), rng.Float64()*10, rng.Float64()*10, rng.Float64()*2, 0.2+rng.Float64())
				pts = append(pts, blobPts...)
			}
			for d := rng.Intn(20); d > 0; d-- {
				pts = append(pts, pts[rng.Intn(len(pts))])
			}
		default:
			density := 0.05 + rng.Float64()*0.3
			layerMM := 0.01 + rng.Float64()*0.1
			pts = latticeWindow(10+rng.Intn(30), 4+rng.Intn(5), 0.625, layerMM, func(int, int, int) bool {
				return rng.Float64() < density
			})
			eps = 0.625 * (0.9 + rng.Float64()*2)
			if rng.Intn(2) == 0 {
				eps = 0.625 * float64(1+rng.Intn(3)) // pairs at exactly eps
			}
		}
		got, err := DBSCAN(pts, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DBSCANNaive(pts, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (replay with -seed=%d), trial %d: %d points, eps %g, minPts %d: point %d labelled %d, naive says %d",
					seed, seed, trial, len(pts), eps, minPts, i, got[i], want[i])
			}
		}
	}
}

// deepWindow is a deterministic 80-layer correlate window at the
// deep-window workload's geometry: 0.625 mm cells (5 px at 0.125 mm/px),
// 0.04 mm layers and eps = 1.6 cells. Each layer holds a drifting 5x5 hot
// patch and two scattered cells, ~2.2k points in all.
func deepWindow() ([]Point, float64) {
	const pitch, layerMM = 0.625, 0.04
	pts := latticeWindow(80, 40, pitch, layerMM, func(l, r, c int) bool {
		r0, c0 := 10+l/16, 10+l/20
		patch := r >= r0 && r < r0+5 && c >= c0 && c < c0+5
		scattered := r == (l*7)%40 && (c == (l*13)%40 || c == (l*29+3)%40)
		return patch || scattered
	})
	return pts, 1.6 * pitch
}

// BenchmarkDBSCANDeepWindow clusters one deep correlate window. B/op is
// under the alloc-smoke ceiling: a frontier that re-enqueues already
// labelled neighbours grows to n·k entries here.
func BenchmarkDBSCANDeepWindow(b *testing.B) {
	pts, eps := deepWindow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, eps, 3); err != nil {
			b.Fatal(err)
		}
	}
}
