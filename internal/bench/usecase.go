// Package bench implements the paper's evaluation: the Figure 3 /
// Algorithm 1 use-case pipeline (thermal-energy monitoring of PBF-LB
// specimens) and the experiment harnesses that regenerate Figures 4-7.
package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/amsim"
	"strata/internal/cluster"
	"strata/internal/core"
	"strata/internal/otimage"
)

// Cell classification labels of the use-case (labelCell()). Only the two
// extreme classes are forwarded as events, per the paper.
const (
	LabelVeryCold = "very_cold"
	LabelCold     = "cold"
	LabelRegular  = "regular"
	LabelWarm     = "warm"
	LabelVeryWarm = "very_warm"
)

// Classification thresholds, as ratios of cell mean to the historical
// reference emission: below/above the outer pair is very cold/very warm
// (reported); the inner pair is cold/warm (logged only).
const (
	veryColdRatio = 0.70
	coldRatio     = 0.85
	warmRatio     = 1.15
	veryWarmRatio = 1.30
)

// refKey is the key-value-store key holding the historical reference
// emission level the thresholds derive from.
const refKey = "strata/ot/reference_emission"

// cellScratch recycles the per-specimen cell buffer isolateCell() splits
// into — without it every specimen tuple allocates a fresh cell slice.
var cellScratch = sync.Pool{New: func() any { return new([]otimage.Cell) }}

// portionGrid and specimenNames intern the small bounded sets of portion
// ("c<col>-<row>") and specimen ("spec<NN>") identifiers, so the per-cell
// hot loop never re-formats a string it has produced before. Shared across
// pipelines and parallel branches (the names only depend on geometry).
// portionGrid is indexed [row][col] and read with one atomic load per cell
// (a sync.Map lookup was a third of the cell stage's time at 2×2 px cells);
// a cell outside it grows a copy under portionMu.
var (
	portionMu     sync.Mutex
	portionGrid   atomic.Pointer[[][]string]
	specimenNames sync.Map // int -> string
)

func portionName(col, row int) string {
	if g := portionGrid.Load(); g != nil && row < len(*g) && col < len((*g)[row]) {
		return (*g)[row][col]
	}
	return growPortionGrid(col, row)
}

// growPortionGrid returns the name of (col, row), first growing the grid to
// cover it. Each dimension that grows at least doubles, so a new geometry
// is interned in a few steps. Cell indices are never negative.
func growPortionGrid(col, row int) string {
	portionMu.Lock()
	defer portionMu.Unlock()
	var old [][]string
	if g := portionGrid.Load(); g != nil {
		old = *g
	}
	w, h := 0, len(old)
	if h > 0 {
		w = len(old[0])
	}
	if row < h && col < w {
		return old[row][col] // grown meanwhile
	}
	if col >= w {
		w = max(col+1, 2*w)
	}
	if row >= h {
		h = max(row+1, 2*h)
	}
	grid := make([][]string, h)
	for r := range grid {
		grid[r] = make([]string, w)
		for c := range grid[r] {
			if r < len(old) && c < len(old[r]) {
				grid[r][c] = old[r][c]
			} else {
				grid[r][c] = fmt.Sprintf("c%d-%d", c, r)
			}
		}
	}
	portionGrid.Store(&grid)
	return grid[row][col]
}

func specimenName(id int) string {
	if v, ok := specimenNames.Load(id); ok {
		return v.(string)
	}
	v, _ := specimenNames.LoadOrStore(id, fmt.Sprintf("spec%02d", id))
	return v.(string)
}

// PipelineParams configures the Algorithm 1 pipeline.
type PipelineParams struct {
	// CellEdgePx is the cell edge of isolateCell(), in pixels of the
	// job's OT image resolution.
	CellEdgePx int
	// L is the number of layers correlateEvents clusters together.
	L int
	// Parallelism replicates the partition/detect/correlate stages.
	Parallelism int
	// EpsMM is DBSCAN's eps in millimetres; 0 derives it from the cell
	// size (1.6 × cell edge, so diagonal-adjacent cells connect).
	EpsMM float64
	// MinPts is DBSCAN's core-point threshold (default 3).
	MinPts int
	// MinClusterCells filters reported clusters below this many cells
	// ("bigger than a certain volume"); default 3.
	MinClusterCells float64
}

func (p PipelineParams) withDefaults(mmPerPixel float64) PipelineParams {
	if p.CellEdgePx <= 0 {
		p.CellEdgePx = 20
	}
	if p.L <= 0 {
		p.L = 10
	}
	if p.Parallelism <= 0 {
		p.Parallelism = 1
	}
	if p.EpsMM <= 0 {
		p.EpsMM = 1.6 * float64(p.CellEdgePx) * mmPerPixel
	}
	if p.MinPts <= 0 {
		p.MinPts = 3
	}
	if p.MinClusterCells <= 0 {
		p.MinClusterCells = 3
	}
	return p
}

// Result is one correlateEvents outcome delivered to the expert: the
// clusters of too-cold/too-hot portions of one specimen, over the window
// ending at Layer.
type Result struct {
	Job      string
	Layer    int
	Specimen string
	// Clusters summarizes the reported defect clusters (already filtered
	// by MinClusterCells). Weight is the summed cell area in mm².
	Clusters []cluster.Summary
	// Events is the number of very-cold/very-warm cells in the window.
	Events int
	// Latency is delivery time minus the availability of the newest data
	// contributing to the result — the paper's latency metric.
	Latency time.Duration
}

// CalibrateReference renders nLayers early layers of a historical job,
// computes the mean printed-pixel emission, and stores it as the reference
// the pipeline's thresholds derive from — the paper's "threshold value
// computed based on historical information from previous jobs".
func CalibrateReference(fw *core.Framework, job *amsim.Job, nLayers int) error {
	if nLayers < 1 {
		nLayers = 1
	}
	var sum float64
	var n int
	for l := 1; l <= nLayers && l <= job.NumLayers(); l++ {
		im, err := job.RenderLayer(l)
		if err != nil {
			return err
		}
		if mean, ok := im.MeanNonZero(); ok {
			sum += mean
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("bench: calibration job produced no printed pixels")
	}
	return fw.StoreFloat(refKey, sum/float64(n))
}

// BuildPipeline assembles Algorithm 1 on fw:
//
//	addSource(PrintingParameterCollector, pp)   (1)
//	addSource(OTImageCollector, OT)             (2)
//	fuse(OT, pp, OT&pp)                         (3)
//	partition(OT&pp, spec, isolateSpecimen())   (4)
//	partition(spec, cell, isolateCell())        (5)
//	detectEvent(cell, cellLabel, labelCell())   (6)
//	correlateEvents(cellLabel, out, L, DBSCAN()) (7)
//
// The two sources replay the given layer feed; onResult receives every
// delivered Result. The pipeline reads the classification reference from
// the framework's key-value store (see CalibrateReference).
func BuildPipeline(
	fw *core.Framework,
	feed Feed,
	layerMM float64,
	params PipelineParams,
	onResult func(Result) error,
) error {
	return buildPipeline(fw, feed, layerMM, params, onResult, nil)
}

// buildPipeline is BuildPipeline that also adds every cell tuple
// isolateCell() emits to cellCount, when cellCount is non-nil. The
// experiments read their cells/s from it: the cell stage runs inside a
// stage chain, so it has no operator counter of its own.
func buildPipeline(
	fw *core.Framework,
	feed Feed,
	layerMM float64,
	params PipelineParams,
	onResult func(Result) error,
	cellCount *atomic.Int64,
) error {
	mmpp := feed.MMPerPixel()
	p := params.withDefaults(mmpp)

	// (1) + (2): the parameter and OT image collectors.
	pp := fw.AddSource("pp", feed.ParamsCollector())
	ot := fw.AddSource("OT", feed.OTCollector())

	// (3): enrich each OT image with its layer's printing parameters.
	fused := fw.Fuse("OT&pp", ot, pp)

	// (4): isolateSpecimen() — one tuple per specimen with a zero-copy view
	// into the layer image (an in-process alias; across a connector the
	// view travels as the window image, with its origin in ox/oy).
	spec := fw.Partition("spec", fused, func(t core.EventTuple, emit func(core.EventTuple) error) error {
		img, ok := t.GetImage("ot")
		if !ok {
			return fmt.Errorf("bench: layer tuple without OT image: %v", t)
		}
		regionsStr, _ := t.GetString("regions")
		regions, err := amsim.DecodeRegions(regionsStr)
		if err != nil {
			return err
		}
		for id := 0; id < len(regions); id++ {
			r, ok := regions[id]
			if !ok {
				continue
			}
			sub, err := img.ViewOf(r)
			if err != nil {
				return err
			}
			err = emit(core.EventTuple{
				Specimen: specimenName(id),
				KV: map[string]any{
					"img": sub,
					"ox":  int64(r.X0),
					"oy":  int64(r.Y0),
				},
			})
			if err != nil {
				return err
			}
		}
		return nil
	}, core.WithParallelism(p.Parallelism))

	// (5): isolateCell() — one tuple per cell with its statistics. Cell
	// regions are normalized to plate pixel coordinates: a view keeps its
	// underlying image's coordinates already; the post-connector image
	// fallback shifts by the origin that rode along in ox/oy.
	cells := fw.Partition("cell", spec, func(t core.EventTuple, emit func(core.EventTuple) error) error {
		sp := cellScratch.Get().(*[]otimage.Cell)
		cs := (*sp)[:0]
		var err error
		var offX, offY int
		if v, ok := t.GetView("img"); ok {
			cs, err = v.AppendSplitCells(cs, p.CellEdgePx)
		} else if img, ok := t.GetImage("img"); ok {
			ox, _ := t.GetInt("ox")
			oy, _ := t.GetInt("oy")
			offX, offY = int(ox), int(oy)
			cs, err = img.AppendSplitCells(cs, otimage.Rect{X0: 0, Y0: 0, X1: img.Width, Y1: img.Height}, p.CellEdgePx)
		} else {
			cellScratch.Put(sp)
			return fmt.Errorf("bench: specimen tuple without sub-image: %v", t)
		}
		*sp = cs
		if err != nil {
			cellScratch.Put(sp)
			return err
		}
		for i := range cs {
			c := cs[i]
			c.Region.X0 += offX
			c.Region.X1 += offX
			c.Region.Y0 += offY
			c.Region.Y1 += offY
			err := emit(core.EventTuple{
				Specimen: t.Specimen,
				Portion:  portionName(c.Col, c.Row),
				Cell:     c,
			})
			if err != nil {
				cellScratch.Put(sp)
				return err
			}
		}
		if cellCount != nil {
			cellCount.Add(int64(len(cs)))
		}
		cellScratch.Put(sp)
		return nil
	}, core.WithParallelism(p.Parallelism))

	// (6): labelCell() — classify each cell against the historical
	// reference; forward only the very-cold/very-warm extremes. The
	// reference is written once before the build (CalibrateReference), so
	// it is read once and reused instead of a store lookup per cell.
	var refOnce sync.Once
	var refVal float64
	var refErr error
	detect := fw.DetectEvent("cellLabel", cells, func(t core.EventTuple, emit func(core.EventTuple) error) error {
		refOnce.Do(func() { refVal, refErr = fw.GetFloat(refKey) })
		if refErr != nil {
			return fmt.Errorf("bench: missing calibration (run CalibrateReference): %w", refErr)
		}
		c, ok := t.CellStats()
		if !ok {
			return fmt.Errorf("bench: cell tuple without cell stats: %v", t)
		}
		label := classify(c.Mean / refVal)
		if label != LabelVeryCold && label != LabelVeryWarm {
			return nil
		}
		// Rare path: materialize the plate-coordinate floats the
		// correlate stage clusters on.
		cx, cy := c.CenterMM(mmpp)
		return emit(core.EventTuple{
			KV: map[string]any{
				"label": label,
				"cx":    cx,
				"cy":    cy,
				"area":  float64(c.Region.W()) * float64(c.Region.H()) * mmpp * mmpp,
			},
		})
	}, core.WithParallelism(p.Parallelism))

	// (7): DBSCAN over the events of the last L layers, per specimen.
	correlated := fw.CorrelateEvents("out", detect, p.L, batchCorrelate(p, layerMM), core.WithParallelism(p.Parallelism))

	fw.Deliver("expert", correlated, func(t core.EventTuple) error {
		enc, _ := t.GetBytes("clusters")
		sums, err := decodeSummaries(enc)
		if err != nil {
			return err
		}
		events, _ := t.GetInt("events")
		return onResult(Result{
			Job:      t.Job,
			Layer:    t.Layer,
			Specimen: t.Specimen,
			Clusters: sums,
			Events:   int(events),
			Latency:  time.Since(t.AvailableAt),
		})
	})
	return fw.Err()
}

// batchCorrelate re-runs DBSCAN over the whole window at each layer.
func batchCorrelate(p PipelineParams, layerMM float64) core.CorrelateFunc {
	return func(w core.CorrelateWindow, emit func(core.EventTuple) error) error {
		pts := make([]cluster.Point, 0, len(w.Events))
		for _, e := range w.Events {
			pts = append(pts, eventPoint(e, layerMM))
		}
		labels, err := cluster.DBSCAN(pts, p.EpsMM, p.MinPts)
		if err != nil {
			return err
		}
		return emitClusters(pts, labels, p.MinClusterCells, emit)
	}
}

// eventPoint converts a very-cold/very-warm cell event into a cluster point.
func eventPoint(e core.EventTuple, layerMM float64) cluster.Point {
	cx, _ := e.GetFloat("cx")
	cy, _ := e.GetFloat("cy")
	area, _ := e.GetFloat("area")
	return cluster.Point{X: cx, Y: cy, Z: float64(e.Layer) * layerMM, Weight: area}
}

// emitClusters filters small clusters and emits the encoded result tuple.
func emitClusters(pts []cluster.Point, labels []int, minCells float64, emit func(core.EventTuple) error) error {
	sums := cluster.Summarize(pts, labels)
	kept := sums[:0]
	for _, s := range sums {
		if float64(s.Size) >= minCells {
			kept = append(kept, s)
		}
	}
	return emit(core.EventTuple{KV: map[string]any{
		"clusters": encodeSummaries(kept),
		"events":   int64(len(pts)),
	}})
}

// classify maps a cell's mean-to-reference ratio to its label.
func classify(ratio float64) string {
	switch {
	case ratio < veryColdRatio:
		return LabelVeryCold
	case ratio < coldRatio:
		return LabelCold
	case ratio > veryWarmRatio:
		return LabelVeryWarm
	case ratio > warmRatio:
		return LabelWarm
	default:
		return LabelRegular
	}
}

// Feed provides the two collectors of the use-case. Implementations replay
// pre-rendered layers (ReplayFeed) or pace a live simulation.
type Feed interface {
	// OTCollector returns the OT-image source (Alg. 1 line 2).
	OTCollector() core.CollectFunc
	// ParamsCollector returns the printing-parameters source (line 1).
	ParamsCollector() core.CollectFunc
	// MMPerPixel exposes the feed's image calibration.
	MMPerPixel() float64
}

// makeTuples converts a rendered layer into the (params, image) tuple pair
// the two sources emit. Both tuples share the layer's event time so the
// same-τ fuse pairs them.
func makeTuples(ld amsim.LayerData, ts time.Time, avail time.Time) (ppT, otT core.EventTuple) {
	ppT = core.EventTuple{
		TS:    ts,
		Job:   ld.JobID,
		Layer: ld.Layer,
		KV: map[string]any{
			"power":       ld.Params.LaserPowerW,
			"speed":       ld.Params.ScanSpeedMMS,
			"hatch":       ld.Params.HatchMM,
			"orientation": ld.Params.OrientationDeg,
			"regions":     amsim.EncodeRegions(ld.Params.SpecimenRegions),
		},
		AvailableAt: avail,
	}
	otT = core.EventTuple{
		TS:          ts,
		Job:         ld.JobID,
		Layer:       ld.Layer,
		KV:          map[string]any{"ot": ld.Image},
		AvailableAt: avail,
	}
	return ppT, otT
}

// Replay renders the first n layers of a job into a reusable buffer.
// Rendering dominates experiment setup, so every repetition shares one
// buffer.
func Replay(job *amsim.Job, n int) ([]amsim.LayerData, error) {
	if n <= 0 || n > job.NumLayers() {
		n = job.NumLayers()
	}
	out := make([]amsim.LayerData, 0, n)
	for l := 1; l <= n; l++ {
		im, err := job.RenderLayer(l)
		if err != nil {
			return nil, err
		}
		out = append(out, amsim.LayerData{
			JobID:  job.ID,
			Layer:  l,
			Image:  im,
			Params: job.ParamsForLayer(l),
		})
	}
	return out, nil
}

// ReplayFeed replays pre-rendered layers, optionally paced.
type ReplayFeed struct {
	Layers []amsim.LayerData
	// Gap sleeps between consecutive layers (0 = as fast as possible).
	// The paper's machine produces a layer every ~minutes; latency
	// experiments only need the pipeline to be idle when a layer lands,
	// so a small gap suffices.
	Gap time.Duration
	// Interval, when positive, targets a fixed emission rate (layer i is
	// released at start + i*Interval, regardless of pipeline progress) —
	// the open-loop load generator of the throughput experiment.
	Interval time.Duration
	// AwaitLayer, when set, is called before releasing layer i+1 with the
	// previous layer's number; blocking there until the layer's results
	// were delivered yields the closed-loop pacing of the paper's latency
	// experiments (the machine is much slower than the pipeline, so every
	// image meets an idle pipeline).
	AwaitLayer func(layer int)
}

var _ Feed = (*ReplayFeed)(nil)

// MMPerPixel implements Feed.
func (f *ReplayFeed) MMPerPixel() float64 {
	if len(f.Layers) == 0 {
		return 1
	}
	return f.Layers[0].Image.MMPerPixel
}

// OTCollector implements Feed.
func (f *ReplayFeed) OTCollector() core.CollectFunc {
	return f.collector(false)
}

// ParamsCollector implements Feed.
func (f *ReplayFeed) ParamsCollector() core.CollectFunc {
	return f.collector(true)
}

func (f *ReplayFeed) collector(params bool) core.CollectFunc {
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		start := time.Now()
		for i, ld := range f.Layers {
			if f.AwaitLayer != nil && i > 0 {
				f.AwaitLayer(f.Layers[i-1].Layer)
			}
			if f.Interval > 0 {
				// Open-loop pacing: release layer i at its scheduled
				// instant even if the pipeline lags.
				release := start.Add(time.Duration(i) * f.Interval)
				if d := time.Until(release); d > 0 {
					if err := sleepCtx(ctx, d); err != nil {
						return err
					}
				}
			} else if f.Gap > 0 && i > 0 {
				if err := sleepCtx(ctx, f.Gap); err != nil {
					return err
				}
			}
			now := time.Now()
			// Event time: a synthetic, deterministic per-layer stamp
			// shared by both sources (required by the same-τ fuse).
			ts := time.UnixMicro(int64(ld.Layer) * 1_000_000)
			ppT, otT := makeTuples(ld, ts, now)
			var t core.EventTuple
			if params {
				t = ppT
			} else {
				t = otT
			}
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
