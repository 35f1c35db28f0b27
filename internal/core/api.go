package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"strata/internal/kvstore"
	"strata/internal/stream"
	"strata/internal/telemetry"
)

// CollectFunc produces the raw tuples of a data-specific collector (e.g. an
// OT image collector). It must emit tuples in non-decreasing event-time
// order and return nil when the job's data is exhausted. The wrapper fills
// in AvailableAt (when unset) with the wall-clock arrival time.
type CollectFunc func(ctx context.Context, emit func(EventTuple) error) error

// PartitionFunc is the user function F of the partition method: it splits
// one input tuple into tuples for independently-analyzable parts, setting
// Specimen and Portion (and any payload) on each emitted tuple. The wrapper
// copies TS, Job, Layer, and AvailableAt from the input, per Table 1.
//
// Tuples are borrowed, not owned: t is valid only until F returns, and each
// tuple F emits only until that emit call returns. F must not modify t or
// keep it past the call; it may reuse one output tuple for every emit. The
// wrapper fills the emitted tuple's lineage fields in place, so F sets
// every field it relies on before each emit.
type PartitionFunc func(t *EventTuple, emit func(*EventTuple) error) error

// DetectFunc is the user function F of the detectEvent method: it turns one
// input tuple into zero or more event tuples. It borrows t and its outputs
// as a PartitionFunc does. The wrapper fills only the lineage fields an
// output leaves at their zero value, so an output tuple reused across
// inputs must be reset (*o = EventTuple{...}) before each emit.
type DetectFunc func(t *EventTuple, emit func(*EventTuple) error) error

// CorrelateWindow is the unit handed to a CorrelateFunc: every event tuple
// of one (job, specimen) across the window's layers (Layer-L, Layer],
// oldest layer first — the paper's intra- plus inter-layer aggregation.
type CorrelateWindow struct {
	Job      string
	Specimen string
	// Layer is the layer whose completion triggered this window.
	Layer int
	// L is the window span in layers.
	L int
	// Events are the buffered detectEvent outputs, grouped by ascending
	// layer, arrival order within a layer. The slice is the operator's
	// reused window buffer: it is valid only during the call to the
	// CorrelateFunc, and F must copy whatever it keeps.
	Events []EventTuple
	// AvailableAt is when the most recent data contributing to the window
	// became available (the latency reference for results).
	AvailableAt time.Time
}

// CorrelateFunc is the user function F of the correlateEvents method.
type CorrelateFunc func(w CorrelateWindow, emit func(EventTuple) error) error

// StageOption tunes one API stage.
type StageOption func(*stageConfig)

type stageConfig struct {
	parallelism int
}

// WithParallelism runs the stage as n parallel replicas, hash-partitioned
// on (job, specimen) so each specimen's tuples stay ordered on one branch —
// the paper's "disjoint layer portions analyzed in a pipelined/parallel
// fashion". A stage fed whole layers partitions by job alone (a layer
// tuple has no specimen yet); the parallel stage after it reshuffles the
// specimens it emitted. Such a whole-layer stage feeds one replica per job
// in flight: with a single build, the other n-1 replicas sit idle.
func WithParallelism(n int) StageOption {
	return func(c *stageConfig) {
		if n > 0 {
			c.parallelism = n
		}
	}
}

func applyStageOpts(opts []StageOption) stageConfig {
	cfg := stageConfig{parallelism: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// specimenHash routes tuples of one (job, specimen) to one shuffle branch.
func specimenHash(t EventTuple) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.Job))
	h.Write([]byte{0})
	h.Write([]byte(t.Specimen))
	return h.Sum64()
}

// AddSource deploys a collector as a Source of the Raw Data Collector
// module (Table 1's addSource). The resulting stream carries one tuple per
// layer with ⟨τ, job, layer, [k:v...]⟩.
func (fw *Framework) AddSource(name string, collect CollectFunc) *StreamRef {
	if collect == nil {
		fw.recordErr(fmt.Errorf("%w: AddSource %q: nil collector", ErrBadPipeline, name))
		collect = func(context.Context, func(EventTuple) error) error { return nil }
	}
	s := stream.AddSource(fw.query, name, func(ctx context.Context, emit stream.Emit[EventTuple]) error {
		return collect(ctx, func(t EventTuple) error {
			// Overload gate: the controller pauses best-effort pipelines at
			// its last ladder rung; collectors park here until resumed.
			if fw.srcPaused.Load() {
				fw.pauseWait(ctx.Done())
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if t.AvailableAt.IsZero() {
				t.AvailableAt = time.Now()
			}
			if t.Specimen == "" {
				t.Specimen = DefaultSpecimen
			}
			if t.Portion == "" {
				t.Portion = DefaultPortion
			}
			if id, ok := fw.sampler.Sample(); ok {
				t.Trace = telemetry.NewTrace(id, fw.name+"/"+name)
			}
			return emit(t)
		})
		// Inert shed gate (see StreamRef.compile): lets the overload controller
		// shed expired tuples at the ingest edge, the first place overload
		// shows up.
	}, stream.WithShedGate())
	out := fw.tapRaw(name, s)
	return &StreamRef{name: name, kind: kindSource, layerGranular: true, s: out}
}

// FuseOption customizes Fuse.
type FuseOption func(*fuseConfig)

type fuseConfig struct {
	ws       time.Duration
	windowed bool
	groupBy  []string
}

// FuseWindow makes fuse match tuples whose event times differ by at most ws
// (the paper's WS parameter; without it, only same-τ tuples fuse). The
// paper's WA parameter tunes window advance in the underlying SPE; with
// this engine's join semantics the time-distance predicate |τ1−τ2| ≤ WS
// fully determines the result, so WA is implicit.
func FuseWindow(ws time.Duration) FuseOption {
	return func(c *fuseConfig) {
		c.windowed = true
		c.ws = ws
	}
}

// FuseGroupBy adds payload keys to the (job, layer) group-by of fuse: only
// tuples whose values under these keys are equal (as formatted strings) are
// fused.
func FuseGroupBy(keys ...string) FuseOption {
	return func(c *fuseConfig) { c.groupBy = append(c.groupBy, keys...) }
}

// Fuse joins two streams on (job, layer) — plus equal event time when no
// window is given — concatenating the payloads of matching tuples (Table
// 1's fuse). Inputs must come from AddSource or Fuse. Per the paper, keys
// are assumed unique across the fused tuples; on a clash the second
// stream's value wins.
func (fw *Framework) Fuse(name string, in1, in2 *StreamRef, opts ...FuseOption) *StreamRef {
	cfg := fuseConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	out := &StreamRef{name: name, kind: kindFuse, layerGranular: true}
	if in1 == nil || in2 == nil {
		fw.recordErr(fmt.Errorf("%w: Fuse %q: nil input", ErrBadPipeline, name))
		return out
	}
	if (in1.kind != kindSource && in1.kind != kindFuse) || (in2.kind != kindSource && in2.kind != kindFuse) {
		fw.recordErr(fmt.Errorf("%w: Fuse %q: inputs must come from AddSource or Fuse", ErrBadPipeline, name))
		return out
	}
	var ws int64 // microseconds
	sameTau := !cfg.windowed
	if cfg.windowed {
		ws = cfg.ws.Microseconds()
	}
	key := func(t EventTuple) string {
		k := fmt.Sprintf("%s\x00%d", t.Job, t.Layer)
		for _, g := range cfg.groupBy {
			k += fmt.Sprintf("\x00%v", t.KV[g])
		}
		return k
	}
	joined := stream.Join(fw.query, name, in1.singleStream(fw, name+".l"), in2.singleStream(fw, name+".r"), ws, key, key,
		func(l, r EventTuple) (EventTuple, bool) {
			if sameTau && !l.TS.Equal(r.TS) {
				return EventTuple{}, false
			}
			kv := make(map[string]any, len(l.KV)+len(r.KV))
			for k, v := range l.KV {
				kv[k] = v
			}
			for k, v := range r.KV {
				kv[k] = v
			}
			// When both sides are sampled the left trace wins (one trace
			// per fused tuple; the right one simply never reaches a sink).
			tr := l.Trace
			if tr == nil {
				tr = r.Trace
			}
			prio := l.Priority
			if r.Priority > prio {
				prio = r.Priority
			}
			return EventTuple{
				TS:          maxTime(l.TS, r.TS),
				Job:         l.Job,
				Layer:       l.Layer,
				Specimen:    DefaultSpecimen,
				Portion:     DefaultPortion,
				KV:          kv,
				AvailableAt: maxTime(l.AvailableAt, r.AvailableAt),
				Priority:    prio,
				Deadline:    earliestDeadline(l.Deadline, r.Deadline),
				Trace:       tr,
			}, true
		})
	out.s = joined
	return out
}

// Partition splits each input tuple into independently-processable parts
// (Table 1's partition). F sets Specimen and Portion on its outputs; the
// wrapper copies the input's τ, job, layer and availability metadata. When
// the input stream is layer-granular, the stage also emits the end-of-layer
// markers CorrelateEvents relies on.
func (fw *Framework) Partition(name string, in *StreamRef, f PartitionFunc, opts ...StageOption) *StreamRef {
	out := &StreamRef{name: name, kind: kindPartition}
	if in == nil || f == nil {
		fw.recordErr(fmt.Errorf("%w: Partition %q: nil input or function", ErrBadPipeline, name))
		return out
	}
	if in.kind != kindSource && in.kind != kindFuse && in.kind != kindPartition {
		fw.recordErr(fmt.Errorf("%w: Partition %q: input must come from AddSource, Fuse, or Partition", ErrBadPipeline, name))
		return out
	}
	fw.subLayerStage(out, in, opts, fillPartition, f)
	return out
}

// DetectEvent applies an event-detection function to each tuple (Table 1's
// detectEvent), producing zero or more event tuples. Thresholds and other
// at-rest inputs are read via the framework's Store/Get inside F.
func (fw *Framework) DetectEvent(name string, in *StreamRef, f DetectFunc, opts ...StageOption) *StreamRef {
	out := &StreamRef{name: name, kind: kindDetect}
	if in == nil || f == nil {
		fw.recordErr(fmt.Errorf("%w: DetectEvent %q: nil input or function", ErrBadPipeline, name))
		return out
	}
	if in.kind == kindCorrelate {
		fw.recordErr(fmt.Errorf("%w: DetectEvent %q: input must come from AddSource, Fuse, or Partition", ErrBadPipeline, name))
		return out
	}
	fw.subLayerStage(out, in, opts, fillDetect, f)
	if fw.broker != nil {
		// The event connector taps every detect output, so the chain ends
		// here.
		out.compile(fw)
		out.branches, out.s = fw.tapEventsAll(name, out.branches, out.s)
	}
	return out
}

// maxChainStages caps the stages of one chain; 0 leaves chains unbounded.
// Tests set it to 1 to build every stage as its own operator.
var maxChainStages = 0

// subLayerStage wraps a user stage: markers pass through, the user function
// runs on data tuples, and — when the input is still layer-granular — the
// wrapper emits one end-of-layer marker per distinct output specimen (plus
// the default specimen) after each input tuple.
//
// The stage is not compiled yet: it extends the input's pending stage chain
// when the parallelism matches, and starts a new chain otherwise. Parallel
// chains keep their output split into per-branch streams, so a later chain
// with the same parallelism reuses the branches instead of re-merging and
// re-shuffling, as long as they are split on (job, specimen).
//
// A parallel stage on a layer-granular input is the exception: it receives
// whole layers, all under DefaultSpecimen, so its branches are split by job
// only (out.byJob). Its chain ends there, and the next parallel consumer
// reshuffles on the specimens it emitted, so that one layer's specimens
// spread over every branch.
func (fw *Framework) subLayerStage(
	out, in *StreamRef,
	opts []StageOption,
	fill stageFill,
	fn func(t *EventTuple, emit func(*EventTuple) error) error,
) {
	par := applyStageOpts(opts).parallelism
	stage := stageRun{fill: fill, emitMarkers: in.layerGranular, fn: fn}
	out.byJob = par > 1 && in.layerGranular
	if c := in.chain; c != nil && !in.byJob && c.par == par && (maxChainStages == 0 || len(c.stages) < maxChainStages) {
		in.chained = true
		out.chain = &stageChain{
			par:    par,
			inputs: c.inputs,
			names:  append(slices.Clip(c.names), out.name),
			stages: append(slices.Clip(c.stages), stage),
		}
	} else {
		var inputs []*stream.Stream[EventTuple]
		if par <= 1 {
			inputs = []*stream.Stream[EventTuple]{in.singleStream(fw, out.name)}
		} else {
			inputs = in.branchStreams(fw, out.name, par)
		}
		out.chain = &stageChain{par: par, inputs: inputs, names: []string{out.name}, stages: []stageRun{stage}}
	}
	fw.mu.Lock()
	fw.pendingChains = append(fw.pendingChains, out)
	fw.mu.Unlock()
}

// stageChain is a run of consecutive Partition/DetectEvent stages with equal
// parallelism, not yet compiled. It compiles into one FlatMap per branch
// whose function calls the stages back to back: a tuple a stage emits is
// handed straight to the next stage's run, with no chunk, channel or
// goroutine in between.
type stageChain struct {
	par int
	// inputs holds one stream per branch (one stream when par is 1).
	inputs []*stream.Stream[EventTuple]
	names  []string
	// stages are templates; every branch runs its own copies.
	stages []stageRun
}

// compile turns the ref's pending stage chain into its operators. The
// operator is named by joining the stage names with "+"; its stats, trace
// spans and shed gate cover the whole chain.
func (r *StreamRef) compile(fw *Framework) {
	c := r.chain
	if c == nil {
		return
	}
	r.chain = nil
	name := strings.Join(c.names, "+")
	// Every chain carries an inert shed gate: nothing is ever shed under
	// normal operation (blocking back-pressure, bit-identical to an ungated
	// operator), but the overload controller's dynamic knobs can start
	// shedding expired or low-priority tuples here without a redeploy.
	gate := stream.WithShedGate()
	if c.par <= 1 {
		r.s = stream.FlatMap(fw.query, name, c.inputs[0], c.operator(), gate)
		return
	}
	r.branches = make([]*stream.Stream[EventTuple], len(c.inputs))
	for i, in := range c.inputs {
		r.branches[i] = stream.FlatMap(fw.query, fmt.Sprintf("%s.%d", name, i), in, c.operator(), gate)
	}
}

// operator builds the FlatMap function of one branch. Each operator runs on
// its own goroutine, so its stage copies reuse their scratch state across
// tuples without locking — but must NOT be shared between branches. Every
// stage is linked once here to the next one, so the per-tuple path
// allocates nothing.
func (c *stageChain) operator() stream.FlatMapFunc[EventTuple, EventTuple] {
	runs := make([]*stageRun, len(c.stages))
	for i := range c.stages {
		st := c.stages[i]
		st.emitOut = st.emitOne
		runs[i] = &st
	}
	for i := 0; i+1 < len(runs); i++ {
		runs[i].next = runs[i+1]
	}
	first, last := runs[0], runs[len(runs)-1]
	// The engine hands the tuple over by value; it is copied once into in,
	// which lives as long as the operator, and borrowed from there.
	var in EventTuple
	return func(t EventTuple, emit stream.Emit[EventTuple]) error {
		last.emit = emit
		in = t
		return first.run(&in)
	}
}

// stageFill selects how a sub-layer stage propagates the input tuple's
// metadata onto each output tuple.
type stageFill uint8

const (
	// fillPartition overwrites the lineage fields (τ, job, layer,
	// availability, priority, deadline, trace) and defaults the identity
	// fields (specimen, portion) the user function is expected to set.
	fillPartition stageFill = iota
	// fillDetect only fills fields the user function left at their zero
	// value — detection functions may legitimately re-stamp any of them.
	fillDetect
)

// stageRun is the reusable per-branch state of one Partition or DetectEvent
// stage in a chain. It replaces three layers of per-tuple closures (the
// metadata fill, the specimen tracker, and the marker emitter) with one
// long-lived struct and a single emit closure created at construction, so
// the steady per-tuple path allocates nothing. Tuples travel down the chain
// by pointer and are never copied inside it: a stage fills the lineage of
// the tuple its function emitted in place and hands that same pointer to
// the next stage, which borrows it until its run returns. Only the last
// stage copies, into the engine's output chunk.
type stageRun struct {
	fill        stageFill
	emitMarkers bool
	fn          func(t *EventTuple, emit func(*EventTuple) error) error

	// emitOut is the emit handed to fn, built once; a closure or method
	// value built per tuple would allocate each call.
	emitOut func(*EventTuple) error
	// next is the chain's following stage; the last stage hands its output
	// to the engine's emit instead.
	next *stageRun
	emit stream.Emit[EventTuple]
	// in is the tuple being processed, valid for the duration of one run()
	// call.
	in *EventTuple
	// marker is the end-of-layer marker being passed on. It lives in the
	// stage, not on run's stack: a pointer handed down the chain reaches
	// user functions, so a local would move to the heap once per marker.
	marker EventTuple
	// seen/specimens are cleared and reused across tuples.
	seen      map[string]bool
	specimens []string
}

func (st *stageRun) emitOne(o *EventTuple) error {
	t := st.in
	switch st.fill {
	case fillPartition:
		o.TS = t.TS
		o.Job = t.Job
		o.Layer = t.Layer
		o.AvailableAt = t.AvailableAt
		o.Priority = t.Priority
		o.Deadline = t.Deadline
		o.Trace = t.Trace
		if o.Specimen == "" {
			o.Specimen = DefaultSpecimen
		}
		if o.Portion == "" {
			o.Portion = DefaultPortion
		}
	case fillDetect:
		if o == t {
			break // a filter passes its input on: nothing to fill
		}
		if o.TS.IsZero() {
			o.TS = t.TS
		}
		if o.Job == "" {
			o.Job = t.Job
		}
		if o.Layer == 0 {
			o.Layer = t.Layer
		}
		if o.Specimen == "" {
			o.Specimen = t.Specimen
		}
		if o.Portion == "" {
			o.Portion = t.Portion
		}
		if o.AvailableAt.IsZero() {
			o.AvailableAt = t.AvailableAt
		}
		if o.Priority == 0 {
			o.Priority = t.Priority
		}
		if o.Deadline.IsZero() {
			o.Deadline = t.Deadline
		}
		if o.Trace == nil {
			o.Trace = t.Trace
		}
	}
	if st.emitMarkers && !st.seen[o.Specimen] {
		st.seen[o.Specimen] = true
		st.specimens = append(st.specimens, o.Specimen)
	}
	// The next stage is called from here, not through pass: the compiler
	// does not inline pass (it recurses through run), and a frame less per
	// stage is a return less to predict. The copy out of the chain stays
	// in pass, so that this frame holds no tuple.
	if st.next != nil {
		return st.next.run(o)
	}
	return st.pass(o)
}

// pass hands o to the next stage, or out of the chain after the last one.
func (st *stageRun) pass(o *EventTuple) error {
	if st.next == nil {
		return st.emit(*o)
	}
	return st.next.run(o)
}

func (st *stageRun) run(t *EventTuple) error {
	if t.isMarker() {
		return st.pass(t)
	}
	st.in = t
	if st.emitMarkers {
		if st.seen == nil {
			st.seen = make(map[string]bool, 4)
		} else {
			clear(st.seen)
		}
		st.specimens = st.specimens[:0]
	}
	err := st.fn(t, st.emitOut)
	if err != nil {
		return err
	}
	if st.emitMarkers {
		// A layer with no outputs still needs closing for the
		// default specimen (the detect-without-partition case);
		// when real specimens were emitted, their markers cover
		// every event downstream can carry.
		if len(st.specimens) == 0 {
			st.specimens = append(st.specimens, DefaultSpecimen)
		}
		for _, sp := range st.specimens {
			st.marker = newMarker(t, sp)
			if err := st.pass(&st.marker); err != nil {
				return err
			}
		}
	}
	return nil
}

// CorrelateEvents aggregates detectEvent outputs per (job, specimen) across
// the most recent L layers (Table 1's correlateEvents): each time a layer
// completes for a specimen, F receives every buffered event of layers
// (layer-L, layer] and emits result tuples for the expert.
func (fw *Framework) CorrelateEvents(name string, in *StreamRef, l int, f CorrelateFunc, opts ...StageOption) *StreamRef {
	out := &StreamRef{name: name, kind: kindCorrelate}
	if in == nil || f == nil {
		fw.recordErr(fmt.Errorf("%w: CorrelateEvents %q: nil input or function", ErrBadPipeline, name))
		return out
	}
	if in.kind != kindDetect {
		fw.recordErr(fmt.Errorf("%w: CorrelateEvents %q: input must come from DetectEvent", ErrBadPipeline, name))
		return out
	}
	if l < 1 {
		fw.recordErr(fmt.Errorf("%w: CorrelateEvents %q: L must be >= 1, got %d", ErrBadPipeline, name, l))
		return out
	}
	cfg := applyStageOpts(opts)

	buildOp := func(branch int, s *stream.Stream[EventTuple]) *stream.Stream[EventTuple] {
		opName := name
		if branch >= 0 {
			opName = fmt.Sprintf("%s.%d", name, branch)
		}
		return stream.Aggregate(fw.query, opName, s, l, specimenOf, layerPane, correlate(l, f))
	}

	if cfg.parallelism > 1 {
		branches := in.branchStreams(fw, name, cfg.parallelism)
		outs := make([]*stream.Stream[EventTuple], len(branches))
		for i, b := range branches {
			outs[i] = buildOp(i, b)
		}
		out.branches, out.s = fw.tapResultsAll(name, outs, nil)
	} else {
		result := buildOp(-1, in.singleStream(fw, name))
		out.branches, out.s = fw.tapResultsAll(name, nil, result)
	}
	return out
}

// specimenKey is the key of correlateEvents' windows.
type specimenKey struct{ Job, Specimen string }

func specimenOf(t EventTuple) specimenKey { return specimenKey{t.Job, t.Specimen} }

// layerPane puts an event in its layer's pane; the end-of-layer marker is
// the punctuation that closes the layer.
func layerPane(t EventTuple) (int, bool) { return t.Layer, t.isMarker() }

// correlate runs F over one closed window and stamps its results. Results
// inherit the closing marker's trace (when sampled) so window outputs
// remain attributable.
func correlate(l int, f CorrelateFunc) stream.AggregateFunc[specimenKey, EventTuple, EventTuple] {
	return func(w stream.Window[specimenKey, EventTuple], emit stream.Emit[EventTuple]) error {
		// Fused overload metadata of the window: results are as important
		// as the most important contributing event, and useful only while
		// every deadlined input still is.
		avail := w.Close.AvailableAt
		prio := 0
		var deadline time.Time
		for _, e := range w.Tuples {
			if e.AvailableAt.After(avail) {
				avail = e.AvailableAt
			}
			if e.Priority > prio {
				prio = e.Priority
			}
			deadline = earliestDeadline(deadline, e.Deadline)
		}
		// Copied out of w, so that the emit closure does not move the
		// closing tuple to the heap once per window.
		key, layer, ts, trace := w.Key, w.Pane, w.Close.TS, w.Close.Trace
		cw := CorrelateWindow{Job: key.Job, Specimen: key.Specimen, Layer: layer, L: l, Events: w.Tuples, AvailableAt: avail}
		return f(cw, func(o EventTuple) error {
			if o.TS.IsZero() {
				o.TS = ts
			}
			o.Job = key.Job
			o.Specimen = key.Specimen
			if o.Layer == 0 {
				o.Layer = layer
			}
			o.Portion = DefaultPortion
			if o.AvailableAt.IsZero() {
				o.AvailableAt = avail
			}
			if o.Priority == 0 {
				o.Priority = prio
			}
			if o.Deadline.IsZero() {
				o.Deadline = deadline
			}
			if o.Trace == nil {
				o.Trace = trace
			}
			return emit(o)
		})
	}
}

// Deliver attaches an expert-facing sink to a stream: fn runs for every
// result tuple (markers are filtered out).
//
// Under checkpointed recovery, Deliver is at-least-once: after a restart
// the pipeline replays from the last checkpoint's offsets, so fn sees
// tuples processed between that checkpoint and the crash a second time.
// Use DeliverDurable when re-applying an effect is not acceptable.
func (fw *Framework) Deliver(name string, in *StreamRef, fn func(EventTuple) error) {
	if in == nil || fn == nil {
		fw.recordErr(fmt.Errorf("%w: Deliver %q: nil input or function", ErrBadPipeline, name))
		return
	}
	// Inert shed gate (see StreamRef.compile): when the overload controller
	// engages shed-late, tuples that expired while queued for the sink are
	// dropped at the doorstep instead of consuming delivery service time.
	stream.AddSink(fw.query, name, in.singleStream(fw, name), func(t EventTuple) error {
		if t.isMarker() {
			return nil
		}
		return fn(t)
	}, stream.WithShedGate())
}

// DeliverDurable attaches an effectively-once sink whose effects live in
// the framework's key-value store. Each result tuple gets a sequence
// number (its 1-based position in the sink's input); apply stages the
// tuple's effects into the batch, and the sink commits the batch together
// with a durable high-water mark in one atomic write. After a crash the
// pipeline replays from its last checkpoint; replayed tuples reproduce
// their original sequence numbers (the sequence counter is part of the
// checkpoint) and every sequence at or below the durable mark is
// suppressed — so each tuple's effects reach the store exactly once, as
// long as the pipeline is deterministic (same inputs in the same order
// produce the same results). Non-deterministic stages degrade this to
// at-least-once, same as Deliver.
func (fw *Framework) DeliverDurable(name string, in *StreamRef, apply func(seq uint64, t EventTuple, b *kvstore.Batch) error) {
	if in == nil || apply == nil {
		fw.recordErr(fmt.Errorf("%w: DeliverDurable %q: nil input or function", ErrBadPipeline, name))
		return
	}
	ds := &durableSink{}
	hwKey := []byte("sinkhw/" + fw.name + "/" + name)
	if v, err := fw.store.Get(hwKey); err == nil {
		if len(v) == 8 {
			ds.hw = binary.BigEndian.Uint64(v)
		}
	} else if !errors.Is(err, kvstore.ErrNotFound) {
		fw.recordErr(fmt.Errorf("DeliverDurable %q: read high-water mark: %w", name, err))
		return
	}
	if fw.restored != nil {
		ds.seq = fw.restored.sinks[name]
	}
	fw.mu.Lock()
	if fw.durableSinks == nil {
		fw.durableSinks = make(map[string]*durableSink)
	}
	fw.durableSinks[name] = ds
	fw.mu.Unlock()
	store := fw.store
	// Deliberately no shed gate on a durable sink: dropping a tuple before
	// sequence assignment would renumber everything behind it on replay and
	// break effectively-once. Expired results are suppressed below instead,
	// after their sequence is consumed — a decision that replays identically.
	stream.AddSink(fw.query, name, in.singleStream(fw, name), func(t EventTuple) error {
		if t.isMarker() {
			return nil
		}
		ds.seq++
		if ds.seq <= ds.hw {
			return nil // replayed tuple whose effects already committed
		}
		// Deadline propagation ends here: a result that arrives past its
		// deadline is suppressed-and-counted, never committed late. No
		// high-water write — on replay the deadline is still in the past,
		// so the suppression decision is deterministic.
		if !t.Deadline.IsZero() && time.Now().After(t.Deadline) {
			ds.expired.Add(1)
			return nil
		}
		var b kvstore.Batch
		if err := apply(ds.seq, t, &b); err != nil {
			return fmt.Errorf("durable sink %q: %w", name, err)
		}
		b.Put(hwKey, be64(ds.seq))
		if err := store.Apply(&b); err != nil {
			return fmt.Errorf("durable sink %q: %w", name, err)
		}
		ds.hw = ds.seq
		return nil
	})
}
