package cluster

import "fmt"

// DBSCAN labels points with cluster IDs (0..k-1) or Noise, following Ester
// et al. (KDD-96): a point with at least minPts neighbours within eps
// (itself included) is a core point; clusters are the transitive closure of
// core points' neighbourhoods; non-core points reachable from a core point
// join its cluster as border points; everything else is noise.
//
// Range queries use a flat grid index (grid.go), so the expected complexity
// is O(n · k) for k points per neighbourhood rather than O(n²). The frontier is bounded by n: a point is labelled when a core
// point first reaches it and enqueued only if it was never visited, and one
// queue slice serves every cluster. Labels do not depend on the visit
// order — clusters are built one at a time, and a border point stays with
// the first cluster that reaches it — so they equal DBSCANNaive's exactly.
func DBSCAN(points []Point, eps float64, minPts int) ([]int, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("cluster: eps must be positive, got %g", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	labels := make([]int, len(points))
	for i := range labels {
		labels[i] = Noise
	}
	if len(points) == 0 {
		return labels, nil
	}
	g := newGrid(points, eps)

	visited := make([]bool, len(points))
	var nb, queue []int
	nextID := 0
	for i := range points {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb = g.neighbors(i, nb[:0])
		if len(nb) < minPts {
			continue // noise (may later become a border point)
		}
		// Start a new cluster and expand it breadth-first. Each pass
		// joins one core point's neighbourhood (i's first, at head -1).
		id := nextID
		nextID++
		queue = queue[:0]
		for head := -1; head < len(queue); head++ {
			if head >= 0 {
				nb = g.neighbors(queue[head], nb[:0])
				if len(nb) < minPts {
					continue // border point: joins, does not expand
				}
			}
			for _, j := range nb {
				if labels[j] == Noise {
					labels[j] = id
				}
				if !visited[j] {
					visited[j] = true
					queue = append(queue, j)
				}
			}
		}
	}
	return labels, nil
}

// DBSCANNaive is the textbook O(n²) variant (linear-scan range queries).
// It exists as the correctness reference for property tests and as the
// baseline of the grid-index ablation benchmark.
func DBSCANNaive(points []Point, eps float64, minPts int) ([]int, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("cluster: eps must be positive, got %g", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	labels := make([]int, len(points))
	for i := range labels {
		labels[i] = Noise
	}
	eps2 := eps * eps
	neighbors := func(i int) []int {
		var out []int
		for j := range points {
			if dist2(points[i], points[j]) <= eps2 {
				out = append(out, j)
			}
		}
		return out
	}
	visited := make([]bool, len(points))
	nextID := 0
	for i := range points {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb) < minPts {
			continue
		}
		id := nextID
		nextID++
		labels[i] = id
		queue := nb
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == Noise {
				labels[j] = id
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			if nb := neighbors(j); len(nb) >= minPts {
				queue = append(queue, nb...)
			}
		}
	}
	return labels, nil
}
