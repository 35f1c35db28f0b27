package main

import (
	"fmt"

	"strata/internal/amsim"
	"strata/internal/bench"
)

// Fixed parameters shared by every workload (ISSUE 11, "Common input").
const (
	// parallelism of the partition/detect/correlate stages: the box the
	// benchmark is sized for has two cores.
	parallelism = 2
	// specimens per layer in amsim's paper layout; a layer verdict is the
	// last of this many specimen verdicts becoming durable.
	specimens = amsim.DefaultSpecimens
	// setupRepeats is how often a run sets the system up; setup_s is the
	// median, the last set-up carries the measured window.
	setupRepeats = 3
	// calibLayers is how many early layers the classification reference is
	// computed from.
	calibLayers = 3
	// liveRate is the open-loop rate of live_xproc in layers per second.
	// Frozen here, never derived at run time: replay_xproc saturates at ~20
	// layers/s on the 2-core reference box, so at 6 every image meets a
	// near-idle pipeline (about a third of saturation).
	liveRate = 6
	// replayInflight bounds the layers between fetch and commit in
	// replay_xproc.
	replayInflight = 4
)

// qos is the paper's ~3 s recoat gap: a layer verdict later than this
// counts as failed.
const qos = bench.QoSThreshold

// workload is one named input shape. Names are fixed: later issues cite
// them.
type workload struct {
	name string
	why  string
	// xproc runs driver, strata-broker and worker as three OS processes.
	xproc bool
	// replay makes the worker pull a recorded build from a durable log
	// (closed loop) instead of receiving published frames (open loop).
	replay bool
	// cellPaperPx is the isolateCell() edge in pixels of a 2000 px image.
	cellPaperPx int
	// l is the correlateEvents window in layers.
	l int
	// ring is the number of distinct rendered layers replayed pass after
	// pass.
	ring int
	// ckptProbe makes a traced run deploy with checkpointing enabled and
	// time one Manager.CheckpointNow after the warm-up. Periodic checkpoints
	// are off in every measured window: at the seed commit an epoch
	// serialises every 8 MB frame the fuse join still buffers (it purges
	// every 1024 ingests), so a 1 s interval costs ~230 MB of allocation per
	// layer and pushes latency past the 3 s QoS — see README.md.
	ckptProbe bool
}

var workloads = []workload{
	{
		name: "live_xproc", xproc: true, cellPaperPx: 10, l: 10, ring: 24, ckptProbe: true,
		why: "paper scenario: 8 MB frames at a fixed sub-saturation rate through the real broker to a managed worker and verdicts back; codec and wire dominate",
	},
	{
		name: "replay_xproc", xproc: true, replay: true, cellPaperPx: 10, l: 10, ring: 24,
		why: "historical replay at saturation: the worker pulls a recorded build from the durable log through the broker, 4 layers in flight; the busiest serial stage sets throughput",
	},
	{
		name: "fine_cells_inproc", cellPaperPx: 2, l: 10, ring: 24,
		why: "2x2 px cells, ~240k tuples per layer in one process: stream per-tuple hops and otimage cell slicing do the work, wire and codec none",
	},
	{
		name: "deep_window_inproc", cellPaperPx: 5, l: 80, ring: 96,
		why: "80-layer correlate window in one process: cluster.DBSCAN and correlate state dominate, stream does little",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sizes a run. full is the benchmark; smoke exists so the tier-1
// test can drive every code path in seconds.
type scale struct {
	name    string
	px      int
	seconds int
	// ringCap truncates every workload's ring (0: none).
	ringCap int
	// warm is the number of layers of the discarded warm-up pass.
	warm int
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return scale{name: name, px: amsim.DefaultImagePx, seconds: 20, warm: 12}, nil
	case "smoke":
		return scale{name: name, px: 256, seconds: 1, ringCap: 8, warm: 4}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (want full or smoke)", name)
}

// plan is a workload resolved against a scale: the numbers a run uses.
type plan struct {
	workload
	sc      scale
	ring    int
	warm    int
	seconds int
	cellPx  int
	layout  amsim.Layout
	params  bench.PipelineParams
}

func makePlan(w workload, sc scale, seconds int) plan {
	p := plan{workload: w, sc: sc, ring: w.ring, warm: sc.warm, seconds: seconds}
	if sc.ringCap > 0 && p.ring > sc.ringCap {
		p.ring = sc.ringCap
	}
	if p.seconds <= 0 {
		p.seconds = sc.seconds
	}
	// A window deeper than the warm-up gets half a pass, so the clustering
	// has met windows of some depth before the first measured pass.
	if w.l > p.warm {
		p.warm = p.ring / 2
	}
	if p.warm > p.ring {
		p.warm = p.ring
	}
	p.cellPx = w.cellPaperPx * sc.px / amsim.DefaultImagePx
	if p.cellPx < 1 {
		p.cellPx = 1
	}
	p.layout = amsim.ScaledLayout(sc.px)
	// Every clustering parameter is explicit so the stage probe calls
	// cluster.DBSCAN with exactly what the pipeline uses.
	p.params = bench.PipelineParams{
		CellEdgePx:      p.cellPx,
		L:               w.l,
		Parallelism:     parallelism,
		EpsMM:           1.6 * float64(p.cellPx) * p.layout.MMPerPixel(),
		MinPts:          3,
		MinClusterCells: 3,
	}
	return p
}
