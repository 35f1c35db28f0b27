package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blob generates n points around (cx, cy, cz) with the given spread.
func blob(rng *rand.Rand, n int, cx, cy, cz, spread float64) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{
			X:      cx + rng.NormFloat64()*spread,
			Y:      cy + rng.NormFloat64()*spread,
			Z:      cz + rng.NormFloat64()*spread,
			Weight: 1,
		}
	}
	return out
}

func TestDBSCANTwoBlobsAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := append(blob(rng, 50, 0, 0, 0, 0.3), blob(rng, 50, 20, 20, 0, 0.3)...)
	pts = append(pts, Point{X: 100, Y: 100}, Point{X: -100, Y: 50}) // isolated noise
	labels, err := DBSCAN(pts, 2.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// First 50 share a label; next 50 share a different one; last 2 noise.
	l0, l1 := labels[0], labels[50]
	if l0 == Noise || l1 == Noise || l0 == l1 {
		t.Fatalf("blob labels = %d, %d", l0, l1)
	}
	for i := 0; i < 50; i++ {
		if labels[i] != l0 {
			t.Fatalf("point %d: label %d, want %d", i, labels[i], l0)
		}
		if labels[50+i] != l1 {
			t.Fatalf("point %d: label %d, want %d", 50+i, labels[50+i], l1)
		}
	}
	if labels[100] != Noise || labels[101] != Noise {
		t.Fatalf("isolated points labeled %d, %d, want noise", labels[100], labels[101])
	}
}

func TestDBSCANChainReachability(t *testing.T) {
	// A chain of points 0.9 apart with eps=1: all density-connected into
	// one cluster even though the ends are far apart.
	var pts []Point
	for i := 0; i < 30; i++ {
		pts = append(pts, Point{X: float64(i) * 0.9})
	}
	labels, err := DBSCAN(pts, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("point %d: label %d, want 0 (single chain cluster)", i, l)
		}
	}
}

func TestDBSCANAllNoiseWhenSparse(t *testing.T) {
	var pts []Point
	for i := 0; i < 20; i++ {
		pts = append(pts, Point{X: float64(i) * 10})
	}
	labels, err := DBSCAN(pts, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != Noise {
			t.Fatalf("point %d: label %d, want noise", i, l)
		}
	}
}

func TestDBSCANMinPtsOne(t *testing.T) {
	// With minPts=1 every point is a core point: no noise possible.
	pts := []Point{{X: 0}, {X: 100}, {X: 200}}
	labels, err := DBSCAN(pts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		if l == Noise {
			t.Fatal("minPts=1 must not produce noise")
		}
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Fatalf("want 3 singleton clusters, got %d", len(seen))
	}
}

func TestDBSCANEmptyAndErrors(t *testing.T) {
	labels, err := DBSCAN(nil, 1, 3)
	if err != nil || len(labels) != 0 {
		t.Fatalf("empty input: labels=%v err=%v", labels, err)
	}
	if _, err := DBSCAN([]Point{{}}, 0, 3); err == nil {
		t.Fatal("eps=0 should error")
	}
	if _, err := DBSCAN([]Point{{}}, 1, 0); err == nil {
		t.Fatal("minPts=0 should error")
	}
}

func TestDBSCAN3DLayerSeparation(t *testing.T) {
	// Two stacks of events at the same (x, y) but far apart in z must be
	// separate clusters when eps is below the z gap.
	rng := rand.New(rand.NewSource(3))
	low := blob(rng, 30, 5, 5, 0, 0.2)
	high := blob(rng, 30, 5, 5, 10, 0.2)
	labels, err := DBSCAN(append(low, high...), 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] == labels[30] {
		t.Fatal("z-separated stacks merged into one cluster")
	}
}

// clusteringsEquivalent checks two labelings are identical up to renaming of
// cluster IDs (noise must map to noise).
func clusteringsEquivalent(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if (a[i] == Noise) != (b[i] == Noise) {
			return false
		}
		if a[i] == Noise {
			continue
		}
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := rev[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}

// TestDBSCANPropertyGridMatchesNaive: the grid-indexed implementation must
// produce the same clustering as the O(n²) reference on random inputs, up
// to renaming of cluster IDs. TestDBSCANMatchesNaiveExactly requires the
// labels themselves to match.
func TestDBSCANPropertyGridMatchesNaive(t *testing.T) {
	prop := func(seed int64, n16 uint16, epsRaw uint8, minPtsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16%300) + 1
		eps := 0.5 + float64(epsRaw%40)/10
		minPts := int(minPtsRaw%5) + 1
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				X: rng.Float64() * 30,
				Y: rng.Float64() * 30,
				Z: rng.Float64() * 5,
			}
		}
		got, err := DBSCAN(pts, eps, minPts)
		if err != nil {
			return false
		}
		want, err := DBSCANNaive(pts, eps, minPts)
		if err != nil {
			return false
		}
		return clusteringsEquivalent(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDBSCANPropertyInvariants checks definitional invariants on random
// inputs: (1) every core point is clustered, (2) every clustered point is
// within eps of some point of its own cluster (connectivity locally), and
// (3) noise points have fewer than minPts neighbours.
func TestDBSCANPropertyInvariants(t *testing.T) {
	prop := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16%400) + 2
		eps, minPts := 1.5, 4
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		}
		labels, err := DBSCAN(pts, eps, minPts)
		if err != nil {
			return false
		}
		countWithin := func(i int) int {
			c := 0
			for j := range pts {
				if dist2(pts[i], pts[j]) <= eps*eps {
					c++
				}
			}
			return c
		}
		for i := range pts {
			nb := countWithin(i)
			if nb >= minPts && labels[i] == Noise {
				return false // core point left unclustered
			}
			if labels[i] == Noise && nb >= minPts {
				return false
			}
			if labels[i] != Noise {
				// Must have a same-cluster point within eps (itself
				// excluded) unless it is a singleton... which cannot
				// happen with minPts > 1.
				ok := false
				for j := range pts {
					if j != i && labels[j] == labels[i] && dist2(pts[i], pts[j]) <= eps*eps {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	pts := []Point{
		{X: 0, Y: 0, Weight: 2},
		{X: 2, Y: 2, Weight: 3},
		{X: 10, Y: 10, Weight: 1},
		{X: 50, Y: 50, Weight: 9}, // noise
	}
	labels := []int{0, 0, 1, Noise}
	sums := Summarize(pts, labels)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	s0 := sums[0]
	if s0.Size != 2 || s0.Weight != 5 || s0.Centroid.X != 1 || s0.Centroid.Y != 1 {
		t.Fatalf("summary 0 = %+v", s0)
	}
	if s0.MinX != 0 || s0.MaxX != 2 {
		t.Fatalf("summary 0 bbox = %+v", s0)
	}
	if sums[1].Size != 1 || sums[1].Weight != 1 {
		t.Fatalf("summary 1 = %+v", sums[1])
	}
	if Summarize(pts, []int{0}) != nil {
		t.Fatal("mismatched lengths should return nil")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := append(blob(rng, 40, 0, 0, 0, 0.5), blob(rng, 40, 30, 30, 0, 0.5)...)
	centroids, labels, err := KMeans(pts, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(centroids) != 2 {
		t.Fatalf("got %d centroids", len(centroids))
	}
	// All of blob A one label, all of blob B the other.
	for i := 1; i < 40; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("blob A split at %d", i)
		}
		if labels[40+i] != labels[40] {
			t.Fatalf("blob B split at %d", i)
		}
	}
	if labels[0] == labels[40] {
		t.Fatal("blobs merged")
	}
	// Centroids near (0,0) and (30,30) in some order.
	d00 := math.Min(Dist(centroids[0], Point{}), Dist(centroids[1], Point{}))
	d30 := math.Min(Dist(centroids[0], Point{X: 30, Y: 30}), Dist(centroids[1], Point{X: 30, Y: 30}))
	if d00 > 1 || d30 > 1 {
		t.Fatalf("centroids off: %+v", centroids)
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, _, err := KMeans(nil, 2, 10, 1); err != nil {
		t.Fatalf("empty input error = %v", err)
	}
	if _, _, err := KMeans([]Point{{}}, 0, 10, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	// k > n clamps to n.
	cents, labels, err := KMeans([]Point{{X: 1}, {X: 2}}, 5, 10, 1)
	if err != nil || len(cents) != 2 || len(labels) != 2 {
		t.Fatalf("clamp: cents=%d labels=%d err=%v", len(cents), len(labels), err)
	}
	// Identical points do not crash k-means++ seeding.
	same := []Point{{X: 1}, {X: 1}, {X: 1}}
	if _, _, err := KMeans(same, 2, 10, 1); err != nil {
		t.Fatalf("identical points error = %v", err)
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := append(blob(rng, 50, 0, 0, 0, 1), blob(rng, 50, 20, 0, 0, 1)...)
	c1, l1, err := KMeans(pts, 1, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, l2, err := KMeans(pts, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if Inertia(pts, c2, l2) >= Inertia(pts, c1, l1) {
		t.Fatal("inertia did not decrease from k=1 to k=2")
	}
}
