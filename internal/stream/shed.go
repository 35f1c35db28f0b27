package stream

import (
	"sync/atomic"
	"time"
)

// Overload protection: per-operator shed gates that trade completeness for
// bounded latency when an edge saturates, driven by the query-wide dynamic
// knobs an external overload controller (core.Manager) turns at run time.
//
// The default is unchanged: every operator blocks on a full edge and
// back-pressure propagates to the sources. A gate is installed only by
// WithShedGate, and it sheds nothing until a knob is turned; ungated
// operators pay nothing.

// Prioritized is implemented by tuple types that carry a shedding priority.
// Higher values are more important; tuples that do not implement the
// interface rank 0. While the priority floor is engaged, a gate sheds tuples
// below it when the edge is full and lets everything at or above the floor
// block as usual.
type Prioritized interface {
	ShedPriority() int
}

// Deadlined is implemented by tuple types that carry an absolute deadline
// after which their results are worthless (the zero time means none). While
// deadline shedding is engaged, gates drop such tuples at admission instead
// of spending queue capacity and service time on work that will be
// discarded at the sink.
type Deadlined interface {
	ShedDeadline() time.Time
}

// Sheddable lets a tuple type exempt individual tuples from shedding.
// Punctuation (end-of-layer markers) must implement it and return false:
// windowed operators rely on markers to close, so a gate always forwards
// them. Tuples that do not implement the interface are sheddable.
type Sheddable interface {
	Sheddable() bool
}

// WithShedGate installs a shed gate on the operator being built, opting it
// in to the query's dynamic OverloadKnobs. Shed decisions are made at
// enqueue time — before a tuple is buffered for the operator's output edge —
// so a gated operator never blocks on tuples the knobs would discard; a
// sink, which has no output edge, decides as it dequeues. Shed tuples still
// advance the operator's watermark, which feeds the watermark-lag metric
// and the overload controller's pressure reading (windows close on
// punctuation, which is never shed).
func WithShedGate() OpOption {
	return func(o *opOptions) { o.shedGate = true }
}

// OverloadKnobs are the query-wide dynamic degradation controls. They start
// neutral and are turned by an overload controller (core.Manager) while the
// query runs; every knob read is a single atomic load guarded by one
// "engaged" flag, so an idle controller costs the hot path nothing
// measurable. Dynamic shedding applies only to operators that carry a gate
// (WithShedGate).
type OverloadKnobs struct {
	// engaged is true while any knob is away from neutral — the hot-path
	// fast check.
	engaged atomic.Bool

	dropExpired atomic.Bool  // shed expired tuples at every gate
	floor       atomic.Int64 // shed tuples below this priority on full edges
	batchBoost  atomic.Int64 // chunk-size multiplier (<=1 neutral)
	lingerExtra atomic.Int64 // ns added to every source linger
}

// SetShedLate turns deadline and priority shedding on (or off) at every
// gated operator: dropExpired sheds expired tuples at admission, and a
// positive floor sheds tuples below that priority when an edge is full.
func (k *OverloadKnobs) SetShedLate(dropExpired bool, floor int) {
	k.dropExpired.Store(dropExpired)
	k.floor.Store(int64(floor))
	k.recompute()
}

// SetBatchBoost multiplies every operator's chunk size by mult (values <= 1
// reset it) and adds extra to every source's linger, trading latency for
// per-tuple overhead while overloaded.
func (k *OverloadKnobs) SetBatchBoost(mult int, extra time.Duration) {
	if mult <= 1 {
		mult = 0
	}
	k.batchBoost.Store(int64(mult))
	if extra < 0 {
		extra = 0
	}
	k.lingerExtra.Store(int64(extra))
	k.recompute()
}

// Reset returns every knob to neutral.
func (k *OverloadKnobs) Reset() {
	k.dropExpired.Store(false)
	k.floor.Store(0)
	k.batchBoost.Store(0)
	k.lingerExtra.Store(0)
	k.recompute()
}

// ShedLate reports the dynamic shedding knob.
func (k *OverloadKnobs) ShedLate() (dropExpired bool, floor int) {
	return k.dropExpired.Load(), int(k.floor.Load())
}

// BatchBoost reports the dynamic batching knob.
func (k *OverloadKnobs) BatchBoost() (mult int, extra time.Duration) {
	m := int(k.batchBoost.Load())
	if m <= 1 {
		m = 1
	}
	return m, time.Duration(k.lingerExtra.Load())
}

func (k *OverloadKnobs) recompute() {
	k.engaged.Store(k.dropExpired.Load() || k.floor.Load() > 0 ||
		k.batchBoost.Load() > 1 || k.lingerExtra.Load() > 0)
}

// boostedMax returns base scaled by the dynamic batch multiplier.
func (k *OverloadKnobs) boostedMax(base int) int {
	if k == nil || !k.engaged.Load() {
		return base
	}
	if m := k.batchBoost.Load(); m > 1 {
		return base * int(m)
	}
	return base
}

// boostedLinger returns base extended by the dynamic linger knob.
func (k *OverloadKnobs) boostedLinger(base time.Duration) time.Duration {
	if k == nil || !k.engaged.Load() {
		return base
	}
	if extra := k.lingerExtra.Load(); extra > 0 && base > 0 {
		return base + time.Duration(extra)
	}
	return base
}

// Overload returns the query's dynamic degradation knobs. Safe to call and
// use while the query runs.
func (q *Query) Overload() *OverloadKnobs { return &q.knobs }

// shedGate makes the per-tuple shed decision for one operator. An emitter's
// gate watches its output edge out. A sink's gate has no edge (out is nil):
// its backlog ages out inside its input queue, after admission, so it
// re-checks deadlines as it dequeues, and the priority floor, which needs a
// full edge, never applies. Nil gates (operators without WithShedGate) are
// inert.
type shedGate[T any] struct {
	knobs *OverloadKnobs
	out   chan []T
	stats *OpStats
}

// newShedGate builds the gate an emitter (or, with a nil out, a sink)
// installs, or nil when the operator was not opted in.
func newShedGate[T any](out chan []T, stats *OpStats) *shedGate[T] {
	gated, knobs := stats.shedSetup()
	if !gated {
		return nil
	}
	return &shedGate[T]{knobs: knobs, out: out, stats: stats}
}

// The assertion helpers mirror trace.go: check *T first so struct tuples are
// probed without copying them into an interface box, with a value fallback
// for pointer- or interface-typed tuples.

// sheddableOf reports whether *v may be shed (tuples that do not implement
// Sheddable are sheddable).
func sheddableOf[T any](v *T) bool {
	if s, ok := any(v).(Sheddable); ok {
		return s.Sheddable()
	}
	if s, ok := any(*v).(Sheddable); ok {
		return s.Sheddable()
	}
	return true
}

// shedDeadlineOf reports *v's shed deadline, if it carries one.
func shedDeadlineOf[T any](v *T) (time.Time, bool) {
	if d, ok := any(v).(Deadlined); ok {
		return d.ShedDeadline(), true
	}
	if d, ok := any(*v).(Deadlined); ok {
		return d.ShedDeadline(), true
	}
	return time.Time{}, false
}

// shedPriorityOf reports *v's shedding priority (0 for tuples without one).
func shedPriorityOf[T any](v *T) int {
	if p, ok := any(v).(Prioritized); ok {
		return p.ShedPriority()
	}
	if p, ok := any(*v).(Prioritized); ok {
		return p.ShedPriority()
	}
	return 0
}

// admit decides *v's fate before it is kept buffered for the edge (or, at a
// sink, serviced): true means the caller proceeds as usual; false means v
// was shed — counted, its event time folded into the watermark, and nothing
// else owed. v must point into caller-owned storage (the emitter's open
// chunk, the sink's input chunk); admit never retains it.
func (g *shedGate[T]) admit(v *T) bool {
	if g == nil || !g.knobs.engaged.Load() || !sheddableOf(v) {
		return true
	}
	if g.knobs.dropExpired.Load() {
		if dl, ok := shedDeadlineOf(v); ok && !dl.IsZero() && time.Now().After(dl) {
			shedTuple(g.stats, v, &g.stats.shedExpired, "expired")
			return false
		}
	}
	if floor := int(g.knobs.floor.Load()); floor > 0 && g.out != nil && len(g.out) == cap(g.out) {
		if shedPriorityOf(v) < floor {
			shedTuple(g.stats, v, &g.stats.shedLowPri, "lowpri")
			return false
		}
	}
	return true
}

// shedTuple counts one shed tuple and folds its event time into the operator's
// watermark, so the watermark-lag metric and the overload controller's
// pressure reading still see the operator's progress though the payload is
// gone.
func shedTuple[T any](s *OpStats, v *T, counter *atomic.Int64, reason string) {
	counter.Add(1)
	s.noteShedBurst(reason)
	if t, ok := eventTimeOf(v); ok {
		s.observeEventTime(t)
	}
}
