package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"strata/internal/amsim"
	"strata/internal/cluster"
	"strata/internal/core"
	"strata/internal/otimage"
)

// QoSThreshold is the paper's deadline for use-case results: the ~3 s
// recoat gap during which a layer's verdict must arrive to allow an online
// continue/adjust/terminate decision.
const QoSThreshold = 3 * time.Second

// ExperimentConfig drives the figure-regeneration experiments. The zero
// value is completed by withDefaults; see the field comments for the
// paper's settings.
type ExperimentConfig struct {
	// ImagePx is the OT image resolution (2000 in the paper; smaller
	// values scale the whole experiment down while preserving the
	// physical geometry — cell sizes are specified in paper-pixels and
	// converted).
	ImagePx int
	// Layers per repetition (the paper replays a full 575-layer build;
	// default here keeps runtime CI-friendly).
	Layers int
	// Reps is the number of repetitions (5 in the paper).
	Reps int
	// Seed drives the simulated build.
	Seed int64
	// Parallelism for the pipeline stages.
	Parallelism int
	// Gap paces layers in the latency experiments (Figures 5/6). The
	// machine's real pace is minutes per layer; any gap long enough for
	// the pipeline to be idle when a layer lands gives the same latency.
	Gap time.Duration
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.ImagePx <= 0 {
		c.ImagePx = 1000
	}
	if c.Layers <= 0 {
		c.Layers = 40
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Seed == 0 {
		c.Seed = 2022
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Gap < 0 {
		c.Gap = 0
	}
	return c
}

func (c ExperimentConfig) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// paperPxToLocal converts a cell edge given in paper pixels (2000-px
// images, 0.125 mm/px) to this experiment's resolution, keeping the
// physical cell size constant.
func paperPxToLocal(paperPx, imagePx int) int {
	px := paperPx * imagePx / amsim.DefaultImagePx
	if px < 1 {
		px = 1
	}
	return px
}

// RunStats is the outcome of one pipeline run over a replay buffer.
type RunStats struct {
	Latencies      []time.Duration
	Results        int
	CellsProcessed int64
	Events         int64
	Elapsed        time.Duration
	Layers         int
}

// ImagesPerSec is the achieved OT image processing rate.
func (s RunStats) ImagesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Layers) / s.Elapsed.Seconds()
}

// CellsPerSec is the achieved cell processing rate (the paper's Figure 7
// throughput metric).
func (s RunStats) CellsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.CellsProcessed) / s.Elapsed.Seconds()
}

// FeedMode selects how RunOnce paces the replay:
//
//   - zero value: as fast as possible (closed loop through back-pressure);
//   - Gap: sleep between layers;
//   - Interval: open-loop fixed rate (the throughput experiment);
//   - ClosedLoop: release a layer only after every result of the previous
//     one was delivered — the paper's latency-experiment regime, where the
//     machine is orders of magnitude slower than the pipeline so each OT
//     image meets an idle pipeline.
type FeedMode struct {
	Gap        time.Duration
	Interval   time.Duration
	ClosedLoop bool
}

// RunOnce executes the Algorithm 1 pipeline once over the replay buffer.
// queryBuffer sizes the SPE channels (use ≥ len(replay) for open-loop rate
// experiments).
func RunOnce(
	ctx context.Context,
	replay []amsim.LayerData,
	layerMM float64,
	params PipelineParams,
	mode FeedMode,
	queryBuffer int,
	storeDir string,
) (RunStats, error) {
	fw, err := core.New(core.WithStoreDir(storeDir), core.WithQueryBuffer(queryBuffer))
	if err != nil {
		return RunStats{}, err
	}
	defer fw.Close()
	if err := calibrateFromReplay(fw, replay); err != nil {
		return RunStats{}, err
	}

	feed := &ReplayFeed{Layers: replay, Gap: mode.Gap, Interval: mode.Interval}
	var gate *layerGate
	if mode.ClosedLoop {
		// Every layer yields one result per specimen.
		expected := 0
		if len(replay) > 0 {
			expected = len(replay[0].Params.SpecimenRegions)
		}
		gate = newLayerGate(expected)
		feed.AwaitLayer = gate.await
	}
	var rec LatencyRecorder
	var results int
	var events int64
	var cells atomic.Int64
	err = buildPipeline(fw, feed, layerMM, params, func(r Result) error {
		rec.Record(r.Latency)
		results++
		events += int64(r.Events)
		if gate != nil {
			gate.done(r.Layer)
		}
		return nil
	}, &cells)
	if err != nil {
		return RunStats{}, err
	}
	start := time.Now()
	if err := fw.Run(ctx); err != nil {
		return RunStats{}, err
	}
	elapsed := time.Since(start)

	return RunStats{
		Latencies:      rec.Values(),
		Results:        results,
		CellsProcessed: cells.Load(),
		Events:         events,
		Elapsed:        elapsed,
		Layers:         len(replay),
	}, nil
}

// calibrateFromReplay stores the reference emission computed from the first
// few replay images (standing in for a previous job's history).
func calibrateFromReplay(fw *core.Framework, replay []amsim.LayerData) error {
	return CalibrateFromLayers(fw, replay, 3)
}

// CalibrateFromLayers stores the classification reference computed as the
// mean printed-pixel emission of the first n layers of an already-rendered
// (or recorded) dataset.
func CalibrateFromLayers(fw *core.Framework, layers []amsim.LayerData, n int) error {
	if n > len(layers) {
		n = len(layers)
	}
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		if mean, ok := layers[i].Image.MeanNonZero(); ok {
			sum += mean
			cnt++
		}
	}
	if cnt == 0 {
		return fmt.Errorf("bench: dataset has no printed pixels to calibrate from")
	}
	return fw.StoreFloat(refKey, sum/float64(cnt))
}

// replayBuffer renders the standard experiment build once.
func replayBuffer(cfg ExperimentConfig) ([]amsim.LayerData, float64, error) {
	layout := amsim.ScaledLayout(cfg.ImagePx)
	job, err := amsim.NewJob("bench-job", layout, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	cfg.logf("rendering %d layers at %dx%d px ...", cfg.Layers, cfg.ImagePx, cfg.ImagePx)
	replay, err := Replay(job, cfg.Layers)
	if err != nil {
		return nil, 0, err
	}
	return replay, layout.LayerMM, nil
}

// ---------------------------------------------------------------------------
// Figure 5: latency vs. cell size.

// CellSizeResult is one boxplot of Figure 5.
type CellSizeResult struct {
	CellEdgePaperPx int
	CellEdgePx      int
	CellAreaMM2     float64
	Stats           BoxStats
	QoSMet          bool
	CellsPerLayer   int64
}

// DefaultCellEdgesPaperPx is the paper's Figure 5 sweep: 40×40 down to 2×2
// pixel cells (5 to 0.25 mm²... the paper's caption says 5 to 0.25 mm²,
// i.e. edge 5 mm to 0.25 mm at 0.125 mm/px).
var DefaultCellEdgesPaperPx = []int{40, 30, 20, 10, 5, 2}

// RunCellSizeExperiment regenerates Figure 5: latency boxplots of the
// use-case pipeline for decreasing cell sizes, against the 3 s QoS line.
func RunCellSizeExperiment(ctx context.Context, cfg ExperimentConfig, edgesPaperPx []int) ([]CellSizeResult, error) {
	cfg = cfg.withDefaults()
	if len(edgesPaperPx) == 0 {
		edgesPaperPx = DefaultCellEdgesPaperPx
	}
	replay, layerMM, err := replayBuffer(cfg)
	if err != nil {
		return nil, err
	}
	mmpp := replay[0].Image.MMPerPixel

	var out []CellSizeResult
	for _, paperPx := range edgesPaperPx {
		edge := paperPxToLocal(paperPx, cfg.ImagePx)
		var all []time.Duration
		var cells int64
		for rep := 0; rep < cfg.Reps; rep++ {
			dir, err := os.MkdirTemp("", "strata-bench-*")
			if err != nil {
				return nil, err
			}
			stats, err := RunOnce(ctx, replay, layerMM,
				PipelineParams{CellEdgePx: edge, L: 10, Parallelism: cfg.Parallelism},
				FeedMode{Gap: cfg.Gap, ClosedLoop: true}, 0, dir)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			all = append(all, stats.Latencies...)
			cells = stats.CellsProcessed / int64(len(replay))
		}
		box := ComputeBox(all)
		res := CellSizeResult{
			CellEdgePaperPx: paperPx,
			CellEdgePx:      edge,
			CellAreaMM2:     float64(edge) * float64(edge) * mmpp * mmpp,
			Stats:           box,
			QoSMet:          box.Max < QoSThreshold,
			CellsPerLayer:   cells,
		}
		cfg.logf("fig5 cell=%dpx(paper %dpx, %.2f mm²): %v", edge, paperPx, res.CellAreaMM2, box)
		out = append(out, res)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 6: latency vs. number of clustered layers L.

// LayerWindowResult is one boxplot of Figure 6.
type LayerWindowResult struct {
	L       int
	DepthMM float64
	Stats   BoxStats
	QoSMet  bool
}

// DefaultLs is the paper's Figure 6 sweep: 5 layers (0.2 mm) to 80 layers
// (3.2 mm).
var DefaultLs = []int{5, 10, 20, 40, 80}

// RunLayerWindowExperiment regenerates Figure 6: latency boxplots for an
// increasing number of layers clustered together (cell size fixed at the
// paper's 20×20).
func RunLayerWindowExperiment(ctx context.Context, cfg ExperimentConfig, ls []int) ([]LayerWindowResult, error) {
	cfg = cfg.withDefaults()
	if len(ls) == 0 {
		ls = DefaultLs
	}
	// The window must fill up for the largest L to be meaningful.
	maxL := 0
	for _, l := range ls {
		if l > maxL {
			maxL = l
		}
	}
	if cfg.Layers < maxL+10 {
		cfg.Layers = maxL + 10
	}
	replay, layerMM, err := replayBuffer(cfg)
	if err != nil {
		return nil, err
	}
	// A finer cell grid than Figure 5's midpoint: the clustering work that
	// grows with L only becomes visible when each defect site spans many
	// event cells.
	edge := paperPxToLocal(10, cfg.ImagePx)

	var out []LayerWindowResult
	for _, l := range ls {
		var all []time.Duration
		for rep := 0; rep < cfg.Reps; rep++ {
			dir, err := os.MkdirTemp("", "strata-bench-*")
			if err != nil {
				return nil, err
			}
			stats, err := RunOnce(ctx, replay, layerMM,
				PipelineParams{CellEdgePx: edge, L: l, Parallelism: cfg.Parallelism},
				FeedMode{Gap: cfg.Gap, ClosedLoop: true}, 0, dir)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			all = append(all, stats.Latencies...)
		}
		box := ComputeBox(all)
		res := LayerWindowResult{
			L:       l,
			DepthMM: float64(l) * layerMM,
			Stats:   box,
			QoSMet:  box.Max < QoSThreshold,
		}
		cfg.logf("fig6 L=%d (%.1f mm): %v", l, res.DepthMM, box)
		out = append(out, res)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 7: throughput and latency vs. offered OT image rate.

// ThroughputPoint is one x-position of Figure 7 for one cell size.
type ThroughputPoint struct {
	CellEdgePaperPx float64
	OfferedImgPerS  float64
	AchievedImgPerS float64
	KCellsPerS      float64
	MeanLatency     time.Duration
	P95Latency      time.Duration
}

// RunThroughputExperiment regenerates Figure 7: input images are replayed
// at increasing offered rates (open loop) for the 20×20 and 10×10 cell
// sizes; throughput grows linearly until the pipeline saturates, then
// flattens while latency climbs.
//
// When rates is nil, the sweep is derived from the measured saturation
// rate: points at 25%..175% of capacity per cell size, so the knee is
// visible regardless of the host's speed.
func RunThroughputExperiment(ctx context.Context, cfg ExperimentConfig, cellEdgesPaperPx []int, rates []float64) (map[int][]ThroughputPoint, error) {
	cfg = cfg.withDefaults()
	if len(cellEdgesPaperPx) == 0 {
		cellEdgesPaperPx = []int{20, 10}
	}
	replay, layerMM, err := replayBuffer(cfg)
	if err != nil {
		return nil, err
	}

	out := make(map[int][]ThroughputPoint, len(cellEdgesPaperPx))
	for _, paperPx := range cellEdgesPaperPx {
		edge := paperPxToLocal(paperPx, cfg.ImagePx)
		params := PipelineParams{CellEdgePx: edge, L: 10, Parallelism: cfg.Parallelism}

		sweep := rates
		if len(sweep) == 0 {
			// Measure capacity: replay as fast as possible.
			dir, err := os.MkdirTemp("", "strata-bench-*")
			if err != nil {
				return nil, err
			}
			maxStats, err := RunOnce(ctx, replay, layerMM, params, FeedMode{}, len(replay)+8, dir)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			capacity := maxStats.ImagesPerSec()
			cfg.logf("fig7 cell=%dpx capacity ≈ %.1f img/s (%.0fk cells/s)",
				paperPx, capacity, maxStats.CellsPerSec()/1000)
			// Sweep well past the estimated capacity: the estimate is
			// conservative (a single as-fast-as-possible run), and the
			// knee only shows once offered load clearly exceeds it.
			for _, frac := range []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0} {
				sweep = append(sweep, capacity*frac)
			}
		}

		for _, rate := range sweep {
			if rate <= 0 {
				continue
			}
			interval := time.Duration(float64(time.Second) / rate)
			dir, err := os.MkdirTemp("", "strata-bench-*")
			if err != nil {
				return nil, err
			}
			stats, err := RunOnce(ctx, replay, layerMM, params, FeedMode{Interval: interval}, len(replay)+8, dir)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			box := ComputeBox(stats.Latencies)
			pt := ThroughputPoint{
				CellEdgePaperPx: float64(paperPx),
				OfferedImgPerS:  rate,
				AchievedImgPerS: stats.ImagesPerSec(),
				KCellsPerS:      stats.CellsPerSec() / 1000,
				MeanLatency:     box.Mean,
				P95Latency:      box.P95,
			}
			cfg.logf("fig7 cell=%dpx offered=%.1f img/s → %.1f img/s, %.0fk cells/s, mean latency %v",
				paperPx, rate, pt.AchievedImgPerS, pt.KCellsPerS, pt.MeanLatency)
			out[paperPx] = append(out[paperPx], pt)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 4: OT image of a specimen and its thermal-energy clustering.

// Fig4Output names the files RunFig4 writes.
type Fig4Output struct {
	OTImagePNG   string
	ClustersPNG  string
	SpecimenID   int
	Layer        int
	ClusterCount int
	EventCells   int
}

// RunFig4 regenerates Figure 4: it renders a mid-build layer, saves the OT
// image of one specimen, runs the use-case classification + DBSCAN over the
// last L layers, and saves the cluster overlay.
func RunFig4(ctx context.Context, cfg ExperimentConfig, outDir string) (Fig4Output, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return Fig4Output{}, err
	}
	layout := amsim.ScaledLayout(cfg.ImagePx)
	job, err := amsim.NewJob("fig4-job", layout, cfg.Seed)
	if err != nil {
		return Fig4Output{}, err
	}
	const l = 10
	// Pick a layer in a high-defect stack: one whose orientation aligns
	// with the gas flow.
	layer := pickDefectLayer(job)
	mmpp := layout.MMPerPixel()
	edge := paperPxToLocal(10, cfg.ImagePx)

	// Reference from the first layers.
	first, err := job.RenderLayer(1)
	if err != nil {
		return Fig4Output{}, err
	}
	ref, ok := first.MeanNonZero()
	if !ok {
		return Fig4Output{}, fmt.Errorf("bench: no printed pixels for calibration")
	}

	// Choose the specimen with the most active defect sites at the layer.
	spID := mostDefectiveSpecimen(job, layer)
	sp := layout.Specimens[spID]
	region := sp.RegionPx(mmpp)

	// Collect events over the window's layers and cluster them.
	var pts []cluster.Point
	var overlays []otimage.Overlay
	var specimenImg *otimage.Image
	eventCells := 0
	var cellRects []otimage.Rect
	for wl := layer - l + 1; wl <= layer; wl++ {
		if wl < 1 {
			continue
		}
		im, err := job.RenderLayer(wl)
		if err != nil {
			return Fig4Output{}, err
		}
		if wl == layer {
			specimenImg, err = im.SubImage(region)
			if err != nil {
				return Fig4Output{}, err
			}
		}
		cells, err := im.SplitCells(region, edge)
		if err != nil {
			return Fig4Output{}, err
		}
		for _, c := range cells {
			label := classify(c.Mean / ref)
			if label != LabelVeryCold && label != LabelVeryWarm {
				continue
			}
			eventCells++
			cx, cy := c.CenterMM(mmpp)
			pts = append(pts, cluster.Point{X: cx, Y: cy, Z: float64(wl) * layout.LayerMM, Weight: 1})
			if wl == layer {
				cellRects = append(cellRects, otimage.Rect{
					X0: c.Region.X0 - region.X0, Y0: c.Region.Y0 - region.Y0,
					X1: c.Region.X1 - region.X0, Y1: c.Region.Y1 - region.Y0,
				})
			} else {
				cellRects = append(cellRects, otimage.Rect{}) // placeholder, not drawn
			}
		}
	}
	eps := 1.6 * float64(edge) * mmpp
	labels, err := cluster.DBSCAN(pts, eps, 3)
	if err != nil {
		return Fig4Output{}, err
	}
	clusters := cluster.Summarize(pts, labels)
	for i, r := range cellRects {
		if r.Empty() {
			continue
		}
		overlays = append(overlays, otimage.Overlay{Region: r, Color: otimage.ClusterPalette(labels[i])})
	}

	otPath := filepath.Join(outDir, "fig4_ot.png")
	if err := specimenImg.SavePNG(otPath); err != nil {
		return Fig4Output{}, err
	}
	clPath := filepath.Join(outDir, "fig4_clusters.png")
	if err := specimenImg.SaveOverlayPNG(clPath, overlays); err != nil {
		return Fig4Output{}, err
	}
	out := Fig4Output{
		OTImagePNG:   otPath,
		ClustersPNG:  clPath,
		SpecimenID:   spID,
		Layer:        layer,
		ClusterCount: len(clusters),
		EventCells:   eventCells,
	}
	cfg.logf("fig4: specimen %d layer %d: %d event cells, %d clusters → %s, %s",
		spID, layer, eventCells, len(clusters), otPath, clPath)
	_ = ctx
	return out, nil
}

// pickDefectLayer returns a layer inside the stack with the highest
// gas-flow alignment (most defect-prone).
func pickDefectLayer(job *amsim.Job) int {
	best, bestLayer := -1.0, 1
	lps := job.Layout.LayersPerStack()
	for layer := 1; layer <= job.NumLayers(); layer += lps {
		count := 0
		for _, s := range job.Model.Sites() {
			if layer-1 >= s.FirstLayer && layer-1 <= s.LastLayer {
				count++
			}
		}
		if f := float64(count); f > best {
			best, bestLayer = f, layer
		}
	}
	// Mid-stack, so the window has history.
	return bestLayer + lps/2
}

// mostDefectiveSpecimen returns the specimen whose active defect sites at
// layer cover the largest area (deterministic: lowest ID wins ties).
func mostDefectiveSpecimen(job *amsim.Job, layer int) int {
	area := make(map[int]float64)
	for _, s := range job.Model.Sites() {
		if layer-1 >= s.FirstLayer && layer-1 <= s.LastLayer {
			area[s.Specimen] += s.RadiusMM * s.RadiusMM
		}
	}
	best, bestA := 0, -1.0
	for id := range job.Layout.Specimens {
		if a := area[id]; a > bestA {
			best, bestA = id, a
		}
	}
	return best
}
