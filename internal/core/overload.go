package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"strata/internal/obslog"
	"strata/internal/telemetry"
)

// Overload control: the manager-level controller that watches every live
// pipeline's backpressure signals (output-queue occupancy, watermark lag)
// and walks a configurable degradation ladder when the deployment cannot
// keep up — shedding late tuples first, then trading latency for batching
// efficiency, and finally pausing best-effort pipelines — instead of
// letting queues fill and latency grow without bound. Every step is reversible: when pressure subsides the
// ladder is descended with the same hysteresis it was climbed with.

// OverloadLevel is a rung of the degradation ladder. Each level includes
// the measures of the levels below it.
type OverloadLevel int

const (
	// OverloadNone: normal operation, every knob neutral.
	OverloadNone OverloadLevel = iota

	// OverloadShedLate: gated operators shed expired tuples at admission
	// and, with a configured floor, sub-floor-priority tuples on full edges.
	OverloadShedLate

	// OverloadBatchBoost: chunk sizes and source lingers are multiplied,
	// cutting per-tuple channel overhead at the price of latency.
	OverloadBatchBoost

	// OverloadPauseBestEffort: sources of pipelines deployed with
	// WithCriticality(BestEffort) are paused, reserving the machine for
	// critical monitoring.
	OverloadPauseBestEffort
)

// String names the level for logs and metric labels.
func (l OverloadLevel) String() string {
	switch l {
	case OverloadNone:
		return "none"
	case OverloadShedLate:
		return "shed-late"
	case OverloadBatchBoost:
		return "batch-boost"
	case OverloadPauseBestEffort:
		return "pause-best-effort"
	default:
		return "unknown"
	}
}

// OverloadConfig tunes the controller. The zero value is filled with the
// defaults noted per field.
type OverloadConfig struct {
	// Interval is the signal poll period (default 100ms).
	Interval time.Duration

	// Enter is the pressure at or above which the controller escalates one
	// level after Dwell (default 0.8). Pressure is the maximum, across every
	// live operator, of output-queue occupancy (len/cap) and watermark lag
	// relative to MaxLag — 1.0 means some edge is full or some operator is
	// MaxLag behind.
	Enter float64

	// Exit is the pressure at or below which the controller de-escalates
	// one level after Dwell (default 0.5). Must be below Enter — the gap is
	// the hysteresis band in which the current level holds.
	Exit float64

	// Dwell is how long pressure must hold beyond a threshold before each
	// single-level step (default 500ms), so one bursty scrape neither
	// engages nor releases degradation.
	Dwell time.Duration

	// MaxLag is the watermark lag that counts as pressure 1.0 (default 5s).
	MaxLag time.Duration

	// ShedFloor is the priority floor engaged at OverloadShedLate: tuples
	// below it are shed when an edge is full (default 0 — only expired
	// tuples are shed).
	ShedFloor int

	// BatchBoost multiplies operator chunk sizes at OverloadBatchBoost
	// (default 4); ExtraLinger is added to every source linger (default 2ms).
	BatchBoost  int
	ExtraLinger time.Duration
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Enter <= 0 {
		c.Enter = 0.8
	}
	if c.Exit <= 0 {
		c.Exit = 0.5
	}
	if c.Dwell <= 0 {
		c.Dwell = 500 * time.Millisecond
	}
	if c.MaxLag <= 0 {
		c.MaxLag = 5 * time.Second
	}
	if c.BatchBoost <= 0 {
		c.BatchBoost = 4
	}
	if c.ExtraLinger <= 0 {
		c.ExtraLinger = 2 * time.Millisecond
	}
	return c
}

// WithOverloadControl starts the manager's overload controller with cfg
// (zero fields take defaults). Without this option the manager never
// degrades anything — classic backpressure end to end.
func WithOverloadControl(cfg OverloadConfig) ManagerOption {
	return func(m *Manager) {
		c := cfg.withDefaults()
		m.overload = &overloadController{
			m:    m,
			cfg:  c,
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
	}
}

// Criticality classifies a pipeline for the last rung of the degradation
// ladder.
type Criticality int

const (
	// Critical pipelines (the default) keep running at every overload level.
	Critical Criticality = iota
	// BestEffort pipelines have their sources paused at
	// OverloadPauseBestEffort and resumed when the deployment recovers.
	BestEffort
)

// WithCriticality marks the deployed pipeline's importance to the overload
// controller (default Critical).
func WithCriticality(c Criticality) DeployOption {
	return func(cfg *deployConfig) { cfg.criticality = c }
}

// overloadController runs the poll → pressure → ladder loop.
type overloadController struct {
	m    *Manager
	cfg  OverloadConfig
	stop chan struct{}
	done chan struct{}

	level    atomic.Int64  // current OverloadLevel
	pressure atomic.Uint64 // float64 bits of the latest pressure sample
	// transitions counts entries into each level (index = OverloadLevel).
	transitions [OverloadPauseBestEffort + 1]atomic.Int64
}

func (oc *overloadController) run() {
	defer close(oc.done)
	t := time.NewTicker(oc.cfg.Interval)
	defer t.Stop()
	// since is when pressure first crossed the pending threshold; direction
	// tracks which threshold. A step resets the clock, so each further rung
	// requires its own full dwell.
	var since time.Time
	var up bool
	for {
		select {
		case <-oc.stop:
			return
		case now := <-t.C:
			p := oc.m.overloadPressure(oc.cfg)
			oc.pressure.Store(math.Float64bits(p))
			lvl := OverloadLevel(oc.level.Load())
			switch {
			case p >= oc.cfg.Enter && lvl < OverloadPauseBestEffort:
				if !up || since.IsZero() {
					up, since = true, now
				}
				if now.Sub(since) >= oc.cfg.Dwell {
					lvl++
					oc.level.Store(int64(lvl))
					oc.transitions[lvl].Add(1)
					obslog.L("core").Warn("overload ladder up",
						"level", lvl.String(), "pressure", fmt.Sprintf("%.3f", p))
					since = now
				}
			case p <= oc.cfg.Exit && lvl > OverloadNone:
				if up || since.IsZero() {
					up, since = false, now
				}
				if now.Sub(since) >= oc.cfg.Dwell {
					lvl--
					oc.level.Store(int64(lvl))
					oc.transitions[lvl].Add(1)
					obslog.L("core").Info("overload ladder down",
						"level", lvl.String(), "pressure", fmt.Sprintf("%.3f", p))
					since = now
				}
			default:
				since = time.Time{}
			}
			// Re-applied every tick (a handful of atomic stores per
			// pipeline), so pipelines deployed mid-overload degrade too.
			oc.m.applyOverload(lvl, oc.cfg)
		}
	}
}

func (oc *overloadController) collect(w *telemetry.Writer) {
	w.Gauge("strata_overload_level",
		"Current rung of the degradation ladder (0 = none).",
		float64(oc.level.Load()))
	w.Gauge("strata_overload_pressure",
		"Latest pressure sample: max queue occupancy / watermark-lag ratio across live operators.",
		math.Float64frombits(oc.pressure.Load()))
	for i := range oc.transitions {
		if n := oc.transitions[i].Load(); n > 0 {
			w.Counter("strata_overload_transitions_total",
				"Times the controller entered each degradation level.",
				float64(n), telemetry.L("level", OverloadLevel(i).String()))
		}
	}
}

// OverloadLevel returns the controller's current degradation level
// (OverloadNone when the manager has no controller).
func (m *Manager) OverloadLevel() OverloadLevel {
	if m.overload == nil {
		return OverloadNone
	}
	return OverloadLevel(m.overload.level.Load())
}

// OverloadPressure returns the controller's latest pressure sample (0 when
// the manager has no controller).
func (m *Manager) OverloadPressure() float64 {
	if m.overload == nil {
		return 0
	}
	return math.Float64frombits(m.overload.pressure.Load())
}

// overloadPressure computes the deployment-wide pressure signal: the worst
// operator's output-queue occupancy or watermark-lag ratio across every live
// pipeline.
func (m *Manager) overloadPressure(cfg OverloadConfig) float64 {
	m.mu.Lock()
	live := make([]*Pipeline, 0, len(m.pipelines))
	for _, p := range m.pipelines {
		live = append(live, p)
	}
	m.mu.Unlock()
	maxLagMicros := float64(cfg.MaxLag.Microseconds())
	var worst float64
	for _, p := range live {
		for _, s := range p.Framework().query.Metrics().Snapshot() {
			if s.QueueCap > 0 {
				if r := float64(s.QueueLen) / float64(s.QueueCap); r > worst {
					worst = r
				}
			}
			if s.HasWatermark && maxLagMicros > 0 {
				if r := float64(s.WatermarkLag) / maxLagMicros; r > worst {
					worst = r
				}
			}
		}
	}
	return worst
}

// applyOverload pushes the level's measures onto every live pipeline.
// Levels include everything below them; measures above the level are
// explicitly reset so de-escalation unwinds in reverse order.
func (m *Manager) applyOverload(lvl OverloadLevel, cfg OverloadConfig) {
	m.mu.Lock()
	live := make([]*Pipeline, 0, len(m.pipelines))
	for _, p := range m.pipelines {
		live = append(live, p)
	}
	m.mu.Unlock()
	for _, p := range live {
		fw := p.Framework()
		knobs := fw.query.Overload()
		if lvl >= OverloadShedLate {
			knobs.SetShedLate(true, cfg.ShedFloor)
		} else {
			knobs.SetShedLate(false, 0)
		}
		if lvl >= OverloadBatchBoost {
			knobs.SetBatchBoost(cfg.BatchBoost, cfg.ExtraLinger)
		} else {
			knobs.SetBatchBoost(0, 0)
		}
		fw.setSourcesPaused(lvl >= OverloadPauseBestEffort && p.criticality == BestEffort)
	}
}

// SourcesPaused reports whether the overload controller has paused this
// framework's sources (BestEffort pipelines at OverloadPauseBestEffort).
func (fw *Framework) SourcesPaused() bool { return fw.srcPaused.Load() }

func (fw *Framework) setSourcesPaused(paused bool) { fw.srcPaused.Store(paused) }

// pauseWait parks a source collector while its framework is paused,
// returning early when ctx ends. Polling keeps the unpaused fast path to a
// single atomic load per tuple.
func (fw *Framework) pauseWait(done <-chan struct{}) {
	for fw.srcPaused.Load() {
		select {
		case <-done:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}
