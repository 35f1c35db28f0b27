package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"strata/internal/bench"
	"strata/internal/cluster"
	"strata/internal/core"
	"strata/internal/pubsub"
)

// layerSpec names one specimen verdict within a pass.
type layerSpec struct {
	layer    int
	specimen string
}

// reference is the oracle's answer for one ring: what every pass must
// commit.
type reference struct {
	digests map[layerSpec]digest
	// pointsPerWindow is the event count of every reference window.
	pointsPerWindow []float64
	// events are the detectEvent outputs per layer and specimen in arrival
	// order — only captured when the oracle is tapped (traced runs), for
	// the DBSCAN stage probe.
	events map[layerSpec][]cluster.Point
}

// runOracle pushes the ring once through bench.BuildPipeline with
// Parallelism 1 and records the verdict digest of every (layer, specimen).
// With tap set, a local broker is attached and the event connector's
// output is captured as well.
func runOracle(p plan, r *ring, dir string, tap bool) (*reference, error) {
	storeDir := filepath.Join(dir, "oracle")
	defer os.RemoveAll(storeDir)
	opts := []core.Option{core.WithStoreDir(storeDir), core.WithName("oracle")}

	ref := &reference{digests: make(map[layerSpec]digest), events: make(map[layerSpec][]cluster.Point)}
	// stopTap ends the event capture and reports its first decode error.
	stopTap := func() error { return nil }
	if tap {
		broker := pubsub.NewBroker()
		defer broker.Close()
		sub, err := broker.Subscribe(core.EventSubjectPrefix+".cellLabel.>", pubsub.WithSubBuffer(1024))
		if err != nil {
			return nil, err
		}
		var tapDone sync.WaitGroup
		var tapErr error
		tapDone.Add(1)
		go func() {
			defer tapDone.Done()
			for m := range sub.C {
				t, err := core.DecodeTuple(m.Data)
				if err != nil {
					tapErr = err
					continue
				}
				cx, _ := t.GetFloat("cx")
				cy, _ := t.GetFloat("cy")
				area, _ := t.GetFloat("area")
				k := layerSpec{t.Layer, t.Specimen}
				ref.events[k] = append(ref.events[k], cluster.Point{
					X: cx, Y: cy, Z: float64(t.Layer) * p.layout.LayerMM, Weight: area,
				})
			}
		}()
		var once sync.Once
		stopTap = func() error {
			// Unsubscribing closes sub.C once in-flight deliveries landed,
			// which ends the collector.
			once.Do(func() {
				sub.Unsubscribe()
				tapDone.Wait()
			})
			return tapErr
		}
		defer func() { _ = stopTap() }()
		opts = append(opts, core.WithBroker(broker))
	}

	fw, err := core.New(opts...)
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	if err := bench.CalibrateFromLayers(fw, r.layers, calibLayers); err != nil {
		return nil, err
	}
	params := p.params
	params.Parallelism = 1
	// onResult runs on the single sink goroutine.
	err = bench.BuildPipeline(fw, &bench.ReplayFeed{Layers: r.layers}, p.layout.LayerMM, params, func(res bench.Result) error {
		ref.digests[layerSpec{res.Layer, res.Specimen}] = digestOf(res)
		ref.pointsPerWindow = append(ref.pointsPerWindow, float64(res.Events))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := fw.Run(context.Background()); err != nil {
		return nil, err
	}
	if want := len(r.layers) * specimens; len(ref.digests) != want {
		return nil, fmt.Errorf("oracle produced %d verdicts, want %d", len(ref.digests), want)
	}
	return ref, stopTap()
}

// verdictCheck is the outcome of comparing a store's verdicts with the
// reference.
type verdictCheck struct {
	missing  int
	extra    int
	mismatch int
	// badLayers holds "job/layer" of every attempted layer with a missing
	// or mismatching verdict.
	badLayers map[string]bool
}

// checkVerdicts requires that the scanned verdicts are exactly the
// reference's, for layers 1..attempted[job] of every job: no verdict
// missing, none extra, every digest equal. scan iterates "verdict/" keys.
func checkVerdicts(ref *reference, attempted map[string]int, scan func(fn func(key string, val []byte) bool) error) (verdictCheck, error) {
	vc := verdictCheck{badLayers: make(map[string]bool)}
	seen := make(map[string]bool)
	var parseErr error
	err := scan(func(key string, val []byte) bool {
		parts := strings.Split(key, "/")
		if len(parts) != 4 {
			parseErr = fmt.Errorf("malformed verdict key %q", key)
			return false
		}
		job, specimen := parts[1], parts[3]
		layer, err := strconv.Atoi(parts[2])
		if err != nil {
			parseErr = fmt.Errorf("malformed verdict key %q", key)
			return false
		}
		want, known := ref.digests[layerSpec{layer, specimen}]
		if !known || layer > attempted[job] {
			vc.extra++
			return true
		}
		seen[key] = true
		if len(val) != len(want) || string(val) != string(want[:]) {
			vc.mismatch++
			vc.badLayers[job+"/"+parts[2]] = true
		}
		return true
	})
	if err == nil {
		err = parseErr
	}
	if err != nil {
		return vc, err
	}
	for job, n := range attempted {
		for k := range ref.digests {
			if k.layer > n {
				continue
			}
			if !seen[verdictKey(job, k.layer, k.specimen)] {
				vc.missing++
				vc.badLayers[fmt.Sprintf("%s/%04d", job, k.layer)] = true
			}
		}
	}
	return vc, nil
}

// median and friends work on unsorted samples; an empty sample reads 0.
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of an unsorted sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(q*float64(len(s))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
