package cluster

import (
	"cmp"
	"math"
	"slices"
)

// grid is a flat range index for DBSCAN. The plate is cut into square
// columns with edge >= eps, so all neighbours of a point lie in its own or
// the 8 adjacent columns. Instead of a map from cell to bucket, the points
// are sorted by (packed column key, Z) and copied in that order: one
// column is one contiguous run, ascending in Z. A range query is therefore
// nine binary searches over flat slices, each followed by a linear scan of
// just the Z-slab the eps-sphere reaches in that column — no hashing, and
// in a deep window (layers far thinner than eps) far fewer candidates than
// a 3×3×3 block of cubic cells.
type grid struct {
	eps2  float64
	edge  float64
	slack float64    // absolute rounding allowance of the pruning bounds
	lo    [2]float64 // per-axis minimum, the origin of column coordinates
	cols  []uint64   // packed column key of pts[k], ascending
	pts   []Point    // points in (column, Z) order
	idx   []int      // idx[k] is the caller's index of pts[k]
	pos   []int      // pos[i] is the sorted position of the caller's point i
}

// Each column coordinate is packed into cellBits bits. cellMax leaves room
// for the +1 neighbour probe without carrying into the next field.
const (
	cellBits = 21
	cellMax  = 1<<cellBits - 2
)

func newGrid(points []Point, eps float64) *grid {
	g := &grid{eps2: eps * eps, lo: [2]float64{math.Inf(1), math.Inf(1)}}
	hi := [2]float64{math.Inf(-1), math.Inf(-1)}
	maxAbs := 0.0
	for _, p := range points {
		// Plain comparisons skip NaN, which math.Min would propagate.
		for a, v := range [2]float64{p.X, p.Y} {
			if v < g.lo[a] {
				g.lo[a] = v
			}
			if v > hi[a] {
				hi[a] = v
			}
		}
		for _, v := range [3]float64{p.X, p.Y, p.Z} {
			if v = math.Abs(v); v > maxAbs {
				maxAbs = v
			}
		}
	}
	// The column arithmetic and the slab bounds round; the slack covers
	// that with a wide margin, so a point within eps of another is always
	// a candidate and labels stay exact. A pathologically wide extent
	// grows the edge rather than overflowing a coordinate field: wider
	// columns only cost more candidates per query.
	g.slack = 1e-9*eps + 1e-12*maxAbs
	g.edge = eps + g.slack
	for a := range hi {
		if s := (hi[a] - g.lo[a]) / (1 << (cellBits - 1)); s > g.edge {
			g.edge = s
		}
	}

	type entry struct {
		col uint64
		z   float64
		i   int
	}
	order := make([]entry, len(points))
	for i, p := range points {
		order[i] = entry{g.cell(p.X, 0)<<cellBits | g.cell(p.Y, 1), p.Z, i}
	}
	slices.SortFunc(order, func(a, b entry) int {
		if c := cmp.Compare(a.col, b.col); c != 0 {
			return c
		}
		return cmp.Compare(a.z, b.z) // NaN first
	})
	g.cols = make([]uint64, len(points))
	g.pts = make([]Point, len(points))
	g.idx = make([]int, len(points))
	g.pos = make([]int, len(points))
	for k, e := range order {
		g.cols[k] = e.col
		g.pts[k] = points[e.i]
		g.idx[k] = e.i
		g.pos[e.i] = k
	}
	return g
}

// cell maps a coordinate to its column index on one axis. Non-finite
// coordinates land in an edge column; they are never within eps of
// anything, so where they sit only matters for not corrupting the key.
func (g *grid) cell(v float64, axis int) uint64 {
	c := math.Floor((v - g.lo[axis]) / g.edge)
	if !(c >= 0) {
		return 0
	}
	if c > cellMax {
		return cellMax
	}
	return uint64(c)
}

// gap is the distance from v to column c's extent on one axis, less the
// slack (never negative).
func (g *grid) gap(v float64, c uint64, axis int) float64 {
	lo := g.lo[axis] + float64(c)*g.edge
	switch {
	case v < lo:
		return math.Max(lo-v-g.slack, 0)
	case v > lo+g.edge:
		return math.Max(v-lo-g.edge-g.slack, 0)
	}
	return 0
}

// neighbors appends to dst the indices of all points within eps of
// points[i] (including i itself) and returns the extended slice.
func (g *grid) neighbors(i int, dst []int) []int {
	const mask = 1<<cellBits - 1
	p, col := g.pts[g.pos[i]], g.cols[g.pos[i]]
	x, y := col>>cellBits, col&mask
	from := 0
	for cx := x - 1; cx != x+2; cx++ {
		if cx > cellMax+1 { // x-1 wrapped below zero
			continue
		}
		gx := g.gap(p.X, cx, 0)
		for cy := y - 1; cy != y+2; cy++ {
			if cy > cellMax+1 {
				continue
			}
			gy := g.gap(p.Y, cy, 1)
			rem := g.eps2 - gx*gx - gy*gy
			if rem < 0 {
				continue // the eps-sphere misses this column
			}
			dz := math.Sqrt(rem) + g.slack
			zmin, zmax := p.Z-dz, p.Z+dz
			// First position at or after (c, zmin). Columns are visited
			// in ascending key order, so the search starts where the
			// previous one ended. NaN Z sorts first and counts as before.
			c := cx<<cellBits | cy
			j, n := from, len(g.cols)
			for j < n {
				m := int(uint(j+n) >> 1)
				if g.cols[m] < c || g.cols[m] == c && !(g.pts[m].Z >= zmin) {
					j = m + 1
				} else {
					n = m
				}
			}
			from = j
			for ; j < len(g.cols) && g.cols[j] == c && g.pts[j].Z <= zmax; j++ {
				if dist2(p, g.pts[j]) <= g.eps2 {
					dst = append(dst, g.idx[j])
				}
			}
		}
	}
	return dst
}
