// Package cluster implements the clustering algorithms of the STRATA
// use-case: grid-indexed DBSCAN (the paper's choice for correlating hot/cold
// specimen portions within and across layers), a naive O(n²) DBSCAN kept as
// the exact reference and ablation baseline, and a k-means++ baseline (the
// method earlier defect-detection work used [Snell et al. 2020]). The
// L-layer window itself is core's CorrelateEvents.
package cluster

import "math"

// Point is a position in build-chamber coordinates: X and Y in millimetres
// on the plate, Z in millimetres along the build direction (layer index ×
// layer thickness). Weight carries an application quantity (e.g. cell area)
// aggregated into cluster summaries.
type Point struct {
	X, Y, Z float64
	Weight  float64
}

// Noise is the label DBSCAN assigns to points that belong to no cluster.
const Noise = -1

func dist2(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	dz := a.Z - b.Z
	return dx*dx + dy*dy + dz*dz
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 { return math.Sqrt(dist2(a, b)) }

// Summary describes one cluster.
type Summary struct {
	ID       int
	Size     int
	Weight   float64 // sum of member weights
	Centroid Point
	// Bounding box.
	MinX, MinY, MinZ float64
	MaxX, MaxY, MaxZ float64
}

// Summarize aggregates per-cluster statistics from DBSCAN/k-means labels.
// Noise points are skipped. Summaries are ordered by cluster ID.
func Summarize(points []Point, labels []int) []Summary {
	if len(points) != len(labels) {
		return nil
	}
	byID := map[int]*Summary{}
	maxID := -1
	for i, p := range points {
		id := labels[i]
		if id == Noise {
			continue
		}
		if id > maxID {
			maxID = id
		}
		s, ok := byID[id]
		if !ok {
			s = &Summary{
				ID:   id,
				MinX: math.Inf(1), MinY: math.Inf(1), MinZ: math.Inf(1),
				MaxX: math.Inf(-1), MaxY: math.Inf(-1), MaxZ: math.Inf(-1),
			}
			byID[id] = s
		}
		s.Size++
		s.Weight += p.Weight
		s.Centroid.X += p.X
		s.Centroid.Y += p.Y
		s.Centroid.Z += p.Z
		s.MinX = math.Min(s.MinX, p.X)
		s.MinY = math.Min(s.MinY, p.Y)
		s.MinZ = math.Min(s.MinZ, p.Z)
		s.MaxX = math.Max(s.MaxX, p.X)
		s.MaxY = math.Max(s.MaxY, p.Y)
		s.MaxZ = math.Max(s.MaxZ, p.Z)
	}
	out := make([]Summary, 0, len(byID))
	for id := 0; id <= maxID; id++ {
		s, ok := byID[id]
		if !ok {
			continue
		}
		s.Centroid.X /= float64(s.Size)
		s.Centroid.Y /= float64(s.Size)
		s.Centroid.Z /= float64(s.Size)
		out = append(out, *s)
	}
	return out
}
