package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
	"strata/internal/testseed"
)

// TestStageChainDifferential runs Algorithm 1 (bench.BuildPipeline) over a
// small seeded build twice per parallelism: once with its stages compiled
// into chains, once with every stage its own operator. Chaining replaces
// channel hops with function calls, so every (job, specimen) must receive
// the same results in the same order. A failure prints its seed; replay it
// with -seed.
func TestStageChainDifferential(t *testing.T) {
	seed := testseed.Seed(t)
	rng := rand.New(rand.NewSource(seed))
	layout := amsim.ScaledLayout(400)
	job, err := amsim.NewJob("ring", layout, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	// Eight layers from where a random defect site starts, so the windows
	// hold events to cluster.
	sites := job.Model.Sites()
	first := sites[rng.Intn(len(sites))].FirstLayer + 1
	var replay []amsim.LayerData
	for l := first; l < first+8 && l <= job.NumLayers(); l++ {
		im, err := job.RenderLayer(l)
		if err != nil {
			t.Fatal(err)
		}
		replay = append(replay, amsim.LayerData{JobID: job.ID, Layer: l, Image: im, Params: job.ParamsForLayer(l)})
	}
	params := bench.PipelineParams{CellEdgePx: 2 + rng.Intn(4), L: 1 + rng.Intn(4)}
	for _, par := range []int{1, 2} {
		params.Parallelism = par
		// At parallelism 1 the whole pipeline is one chain; in parallel,
		// spec takes whole layers and ends its chain, and cell reshuffles
		// its specimens.
		chain := "spec+cell+cellLabel"
		if par > 1 {
			chain = "cell+cellLabel"
		}
		chained, events := runAlgorithm1(t, job, replay, layout.LayerMM, params, chain)
		restore := core.SetMaxChainStages(1)
		unchained, _ := runAlgorithm1(t, job, replay, layout.LayerMM, params, "cellLabel")
		restore()
		if events == 0 {
			t.Fatalf("seed %d, parallelism %d: no cell events, nothing to compare", seed, par)
		}
		if len(chained) != len(unchained) {
			t.Fatalf("seed %d, parallelism %d: results for %d (job, specimen) chained, %d unchained",
				seed, par, len(chained), len(unchained))
		}
		for key, got := range chained {
			if want := unchained[key]; !slices.Equal(got, want) {
				t.Fatalf("seed %d, parallelism %d, %s:\nchained   %v\nunchained %v", seed, par, key, got, want)
			}
		}
	}
}

// runAlgorithm1 runs the use-case pipeline over replay, calibrated on the
// first layers of job, and returns, per (job, specimen), its results in
// delivery order, and the events they count. lastOp names the operator
// that must end the detect side, proving which build ran.
func runAlgorithm1(t *testing.T, job *amsim.Job, replay []amsim.LayerData, layerMM float64, params bench.PipelineParams, lastOp string) (map[string][]string, int) {
	t.Helper()
	fw, err := core.New(core.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := bench.CalibrateReference(fw, job, 3); err != nil {
		t.Fatal(err)
	}
	results := make(map[string][]string)
	events := 0
	err = bench.BuildPipeline(fw, &bench.ReplayFeed{Layers: replay}, layerMM, params, func(r bench.Result) error {
		key := r.Job + "/" + r.Specimen
		results[key] = append(results[key], fmt.Sprintf("layer %d events %d clusters %+v", r.Layer, r.Events, r.Clusters))
		events += r.Events
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
	if params.Parallelism > 1 {
		lastOp += ".0"
	}
	found := false
	for _, s := range fw.Query().Metrics().Snapshot() {
		found = found || s.Name == lastOp
	}
	if !found {
		t.Fatalf("no operator %q: the build did not chain as expected", lastOp)
	}
	return results, events
}
