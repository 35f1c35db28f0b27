package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
)

// ring is the benchmark's input: the first n layers of one simulated build,
// rendered once. A run replays it pass after pass, each pass under a fresh
// job id with layers 1..n, so every pass must produce the same verdicts.
type ring struct {
	layout  amsim.Layout
	layers  []amsim.LayerData
	regions string
	// renderMS is the mean wall time of one RenderLayer call.
	renderMS float64
}

// buildSeed places the simulated build's defect sites. It is fixed: how many
// cells a layer flags — and with it the tuples, the window sizes and the
// allocations of every stage behind detection — follows the sites, and
// between two builds that differs several-fold (measured over seeds 1..10:
// deep_window_inproc p50 20..32 ms, fine_cells_inproc 0.1..6 MB allocated
// per layer). The run's -seed instead sets the build's energy density, so
// every pixel of every layer depends on it while the work stays comparable
// from seed to seed.
const buildSeed = 2022

// energyScale maps a seed to the build's energy-density factor, spread
// over [0.90, 1.10). Hot sites then peak near 50000 counts, inside the
// 16-bit range.
func energyScale(seed int64) float64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return 0.90 + 0.20*float64(h%10000)/10000
}

// renderRing renders layers 1..n of the build at the energy density the
// seed selects, two layers at a time (the model is read-only while
// rendering).
func renderRing(layout amsim.Layout, n int, seed int64) (*ring, error) {
	job, err := amsim.NewJob("ring", layout, buildSeed)
	if err != nil {
		return nil, err
	}
	job.Model.SetEnergyScale(energyScale(seed))
	if n > job.NumLayers() {
		return nil, fmt.Errorf("ring of %d layers exceeds the build's %d", n, job.NumLayers())
	}
	r := &ring{
		layout:  layout,
		layers:  make([]amsim.LayerData, n),
		regions: amsim.EncodeRegions(job.ParamsForLayer(1).SpecimenRegions),
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		total    time.Duration
	)
	const renderers = 2
	for g := 0; g < renderers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for l := 1 + g; l <= n; l += renderers {
				start := time.Now()
				im, err := job.RenderLayer(l)
				d := time.Since(start)
				mu.Lock()
				total += d
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				r.layers[l-1] = amsim.LayerData{JobID: job.ID, Layer: l, Image: im, Params: job.ParamsForLayer(l)}
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	r.renderMS = ms(total) / float64(n)
	return r, nil
}

// jobName is the job id of a pass. Pass 0 is the warm-up.
func jobName(pass int) string { return fmt.Sprintf("b%d", pass) }

// eventTime gives every released layer a strictly increasing event time:
// the join and the windows purge by it, so it must never repeat across
// passes.
func eventTime(pass, ringLen, layer int) time.Time {
	return time.UnixMicro(int64(pass*ringLen+layer) * 1_000_000)
}

// tuples builds the printing-parameter and OT-image tuples of one ring
// layer for a pass, as the use-case's two collectors emit them: same job,
// layer and event time, so the same-τ fuse pairs them.
func (r *ring) tuples(pass, layer int, avail time.Time) (ppT, otT core.EventTuple) {
	ld := r.layers[layer-1]
	ts := eventTime(pass, len(r.layers), layer)
	job := jobName(pass)
	ppT = core.EventTuple{
		TS: ts, Job: job, Layer: layer, AvailableAt: avail,
		KV: map[string]any{
			"power":       ld.Params.LaserPowerW,
			"speed":       ld.Params.ScanSpeedMMS,
			"hatch":       ld.Params.HatchMM,
			"orientation": ld.Params.OrientationDeg,
			"regions":     r.regions,
		},
	}
	otT = core.EventTuple{
		TS: ts, Job: job, Layer: layer, AvailableAt: avail,
		KV: map[string]any{"ot": ld.Image},
	}
	return ppT, otT
}

// digest is the fingerprint of one specimen verdict.
type digest [8]byte

// digestOf fingerprints everything an expert would read off a result: the
// window's event count and every reported cluster. Job and layer are not
// part of it (they are in the verdict's key), so equal windows of
// different passes hash alike.
func digestOf(r bench.Result) digest {
	h := sha256.New()
	var tmp [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		h.Write(tmp[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	u(uint64(r.Events))
	u(uint64(len(r.Clusters)))
	for _, c := range r.Clusters {
		u(uint64(c.ID))
		u(uint64(c.Size))
		for _, v := range []float64{c.Weight, c.Centroid.X, c.Centroid.Y, c.Centroid.Z,
			c.MinX, c.MinY, c.MinZ, c.MaxX, c.MaxY, c.MaxZ} {
			f(v)
		}
	}
	var d digest
	copy(d[:], h.Sum(nil))
	return d
}

// verdictKey is where a specimen verdict is committed.
func verdictKey(job string, layer int, specimen string) string {
	return fmt.Sprintf("verdict/%s/%04d/%s", job, layer, specimen)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
