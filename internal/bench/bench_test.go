package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"strata/internal/amsim"
	"strata/internal/cluster"
	"strata/internal/core"
)

// smallReplay renders a small build once for the whole test file.
func smallReplay(t *testing.T, layers int) ([]amsim.LayerData, float64) {
	t.Helper()
	layout := amsim.ScaledLayout(200) // 1.25 mm/px
	job, err := amsim.NewJob("test-job", layout, 7)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Replay(job, layers)
	if err != nil {
		t.Fatal(err)
	}
	return replay, layout.LayerMM
}

func TestClassify(t *testing.T) {
	cases := []struct {
		ratio float64
		want  string
	}{
		{0.5, LabelVeryCold},
		{0.69, LabelVeryCold},
		{0.75, LabelCold},
		{1.0, LabelRegular},
		{1.2, LabelWarm},
		{1.31, LabelVeryWarm},
		{2.0, LabelVeryWarm},
	}
	for _, c := range cases {
		if got := classify(c.ratio); got != c.want {
			t.Errorf("classify(%g) = %q, want %q", c.ratio, got, c.want)
		}
	}
}

func TestSummariesCodec(t *testing.T) {
	in := []cluster.Summary{
		{ID: 0, Size: 5, Weight: 12.5, Centroid: cluster.Point{X: 1, Y: 2, Z: 3},
			MinX: 0, MinY: 1, MinZ: 2, MaxX: 3, MaxY: 4, MaxZ: 5},
		{ID: 3, Size: 1, Weight: 0.25},
	}
	out, err := decodeSummaries(encodeSummaries(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if _, err := decodeSummaries([]byte{}); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := decodeSummaries(encodeSummaries(in)[:10]); err == nil {
		t.Fatal("truncated input should error")
	}
	empty, err := decodeSummaries(encodeSummaries(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty summaries: %v %v", empty, err)
	}
}

func TestComputeBox(t *testing.T) {
	if b := ComputeBox(nil); b.N != 0 {
		t.Fatal("empty box should be zero")
	}
	vals := make([]time.Duration, 100)
	for i := range vals {
		vals[i] = time.Duration(i+1) * time.Millisecond
	}
	b := ComputeBox(vals)
	if b.N != 100 || b.Min != time.Millisecond || b.Max != 100*time.Millisecond {
		t.Fatalf("box = %+v", b)
	}
	if b.Median != 50*time.Millisecond || b.P25 != 25*time.Millisecond || b.P75 != 75*time.Millisecond {
		t.Fatalf("quartiles: %+v", b)
	}
	if b.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", b.Mean)
	}
	if b.String() == "" {
		t.Fatal("String empty")
	}
}

func TestLatencyRecorder(t *testing.T) {
	var r LatencyRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Record(time.Duration(i))
		}
	}()
	for i := 0; i < 100; i++ {
		r.Record(time.Duration(i))
	}
	<-done
	if r.Len() != 200 {
		t.Fatalf("Len = %d, want 200", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	replay, layerMM := smallReplay(t, 12)
	stats, err := RunOnce(context.Background(), replay, layerMM,
		PipelineParams{CellEdgePx: 4, L: 5, Parallelism: 2}, FeedMode{}, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// 12 layers × 12 specimens = 144 results.
	if stats.Results != 144 {
		t.Fatalf("results = %d, want 144", stats.Results)
	}
	if stats.CellsProcessed == 0 {
		t.Fatal("no cells processed")
	}
	if len(stats.Latencies) != stats.Results {
		t.Fatalf("latencies %d != results %d", len(stats.Latencies), stats.Results)
	}
	for _, l := range stats.Latencies {
		if l < 0 || l > time.Minute {
			t.Fatalf("implausible latency %v", l)
		}
	}
	if stats.ImagesPerSec() <= 0 || stats.CellsPerSec() <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestPipelineDetectsSimulatedDefects(t *testing.T) {
	// Over a full small build, the simulator injects defect sites; the
	// pipeline must find events and clusters.
	replay, layerMM := smallReplay(t, 30)
	fw, err := core.New(core.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := calibrateFromReplay(fw, replay); err != nil {
		t.Fatal(err)
	}
	var totalEvents, totalClusters int
	err = BuildPipeline(fw, &ReplayFeed{Layers: replay}, layerMM,
		PipelineParams{CellEdgePx: 2, L: 10}, func(r Result) error {
			totalEvents += r.Events
			totalClusters += len(r.Clusters)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := fw.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if totalEvents == 0 {
		t.Fatal("pipeline detected no very-cold/very-warm cells despite injected defects")
	}
	if totalClusters == 0 {
		t.Fatal("pipeline reported no clusters despite events")
	}
}

func TestPipelineParallelismMatchesSequential(t *testing.T) {
	replay, layerMM := smallReplay(t, 8)
	run := func(par int) (int, int64) {
		stats, err := RunOnce(context.Background(), replay, layerMM,
			PipelineParams{CellEdgePx: 3, L: 4, Parallelism: par}, FeedMode{}, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return stats.Results, stats.Events
	}
	r1, e1 := run(1)
	r4, e4 := run(4)
	if r1 != r4 || e1 != e4 {
		t.Fatalf("parallel run differs: results %d/%d events %d/%d", r1, r4, e1, e4)
	}
}

func TestCalibrateReference(t *testing.T) {
	layout := amsim.ScaledLayout(100)
	job, err := amsim.NewJob("hist", layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := CalibrateReference(fw, job, 2); err != nil {
		t.Fatal(err)
	}
	ref, err := fw.GetFloat(refKey)
	if err != nil {
		t.Fatal(err)
	}
	if ref < 10000 || ref > 60000 {
		t.Fatalf("reference = %g, implausible", ref)
	}
}

func TestRunFig4WritesImages(t *testing.T) {
	dir := t.TempDir()
	out, err := RunFig4(context.Background(), ExperimentConfig{ImagePx: 200, Layers: 10, Reps: 1, Seed: 5}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{out.OTImagePNG, out.ClustersPNG} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Fatalf("missing output %s: %v", p, err)
		}
		if filepath.Dir(p) != dir {
			t.Fatalf("output outside dir: %s", p)
		}
	}
	if out.EventCells == 0 {
		t.Fatal("fig4 found no event cells")
	}
}

func TestCellSizeExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunCellSizeExperiment(context.Background(),
		ExperimentConfig{ImagePx: 200, Layers: 6, Reps: 1, Parallelism: 2},
		[]int{40, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Stats.N == 0 || res[1].Stats.N == 0 {
		t.Fatal("no latency samples")
	}
	// Smaller cells → more cells per layer.
	if res[1].CellsPerLayer <= res[0].CellsPerLayer {
		t.Fatalf("cells/layer did not grow: %d vs %d", res[0].CellsPerLayer, res[1].CellsPerLayer)
	}
	if FormatCellSizeResults(res) == "" {
		t.Fatal("empty report")
	}
}

func TestLayerWindowExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunLayerWindowExperiment(context.Background(),
		ExperimentConfig{ImagePx: 200, Layers: 12, Reps: 1, Parallelism: 2},
		[]int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Stats.N == 0 {
		t.Fatalf("results = %+v", res)
	}
	if FormatLayerWindowResults(res) == "" {
		t.Fatal("empty report")
	}
}

func TestThroughputExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	pts, err := RunThroughputExperiment(context.Background(),
		ExperimentConfig{ImagePx: 200, Layers: 10, Reps: 1, Parallelism: 2},
		[]int{20}, []float64{5, 50})
	if err != nil {
		t.Fatal(err)
	}
	series := pts[20]
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	for _, p := range series {
		if p.AchievedImgPerS <= 0 || p.KCellsPerS <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	if FormatThroughputResults(pts) == "" {
		t.Fatal("empty report")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("a", "long-header", "c")
	tb.AddRow(1, 2.5, time.Millisecond*1500)
	tb.AddRow("xx", "yyyyyyyyyyyy", true)
	s := tb.String()
	if s == "" {
		t.Fatal("empty table")
	}
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != 4 { // header + separator + 2 rows
		t.Fatalf("table has %d lines, want 4:\n%s", lines, s)
	}
}

func TestReplayFeedPacing(t *testing.T) {
	replay, _ := smallReplay(t, 3)
	feed := &ReplayFeed{Layers: replay, Interval: 30 * time.Millisecond}
	var stamps []time.Time
	err := feed.OTCollector()(context.Background(), func(t core.EventTuple) error {
		stamps = append(stamps, time.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 3 {
		t.Fatalf("emitted %d", len(stamps))
	}
	if d := stamps[2].Sub(stamps[0]); d < 50*time.Millisecond {
		t.Fatalf("open-loop pacing too fast: %v", d)
	}
}

func TestIncrementalCorrelateMatchesBatch(t *testing.T) {
	replay, layerMM := smallReplay(t, 20)
	run := func(incremental bool) map[string]string {
		fw, err := core.New(core.WithStoreDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer fw.Close()
		if err := calibrateFromReplay(fw, replay); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		err = BuildPipeline(fw, &ReplayFeed{Layers: replay}, layerMM,
			PipelineParams{CellEdgePx: 2, L: 6, Incremental: incremental},
			func(r Result) error {
				// Record a canonical signature of the clusters: sizes
				// and weights sorted (IDs differ between variants).
				sizes := make([]string, 0, len(r.Clusters))
				for _, c := range r.Clusters {
					sizes = append(sizes, fmt.Sprintf("%d/%.1f", c.Size, c.Weight))
				}
				sort.Strings(sizes)
				out[fmt.Sprintf("%s@%d", r.Specimen, r.Layer)] = fmt.Sprintf("%d|%v", r.Events, sizes)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := fw.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return out
	}
	batch := run(false)
	inc := run(true)
	if len(batch) == 0 {
		t.Fatal("no results")
	}
	if len(batch) != len(inc) {
		t.Fatalf("result counts differ: batch=%d incremental=%d", len(batch), len(inc))
	}
	for k, v := range batch {
		if inc[k] != v {
			t.Fatalf("window %s: batch=%q incremental=%q", k, v, inc[k])
		}
	}
}

func TestCSVExports(t *testing.T) {
	dir := t.TempDir()
	cell := []CellSizeResult{{CellEdgePaperPx: 40, CellEdgePx: 20, CellAreaMM2: 25,
		CellsPerLayer: 612, Stats: ComputeBox([]time.Duration{time.Millisecond}), QoSMet: true}}
	if err := WriteCellSizeCSV(filepath.Join(dir, "f5.csv"), cell); err != nil {
		t.Fatal(err)
	}
	lw := []LayerWindowResult{{L: 5, DepthMM: 0.2, Stats: ComputeBox([]time.Duration{time.Millisecond}), QoSMet: true}}
	if err := WriteLayerWindowCSV(filepath.Join(dir, "f6.csv"), lw); err != nil {
		t.Fatal(err)
	}
	tp := map[int][]ThroughputPoint{20: {{CellEdgePaperPx: 20, OfferedImgPerS: 10,
		AchievedImgPerS: 9, KCellsPerS: 100, MeanLatency: time.Millisecond, P95Latency: 2 * time.Millisecond}}}
	if err := WriteThroughputCSV(filepath.Join(dir, "f7.csv"), tp); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"f5.csv", "f6.csv", "f7.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v", f, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines != 2 { // header + one row
			t.Fatalf("%s has %d lines:\n%s", f, lines, data)
		}
	}
}

// TestPortionNameGrowsConcurrently: the interned portion grid grows in
// either dimension while parallel branches read it, and every lookup
// returns the name it would have formatted.
func TestPortionNameGrowsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				col, row := (i*7+g)%90, (i*13+g*5)%70
				if g%2 == 1 {
					col, row = row, col
				}
				if got, want := portionName(col, row), fmt.Sprintf("c%d-%d", col, row); got != want {
					t.Errorf("portionName(%d, %d) = %q, want %q", col, row, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
