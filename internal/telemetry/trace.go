package telemetry

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a sampled per-tuple trace context: an operator-by-operator span
// timeline carried on a tuple as it traverses a pipeline. A Trace is
// created at a source (see Sampler), shared by pointer across every copy
// of the tuple (including fan-outs, which is why recording locks), and
// finished when a tuple carrying it reaches a sink.
//
// Each Trace is one *fragment* of a possibly cross-process trace: the
// TraceContext (trace ID, span ID, sampled bit) travels with the tuple
// through the tuple codec and the pubsub frame header, and every process
// that continues the tuple records its own fragment under the same trace
// ID (ContinueTrace). Fragments are joined offline by that ID — see
// MergeFragments and the strata-trace command.
type Trace struct {
	id     uint64
	label  string
	start  time.Time
	tc     TraceContext
	parent [8]byte // span ID of the upstream fragment, zero at the root

	// filed/observed make TraceBuffer.Add idempotent: a fragment can be
	// filed early (a connector tap publishing the tuple onward) and again
	// when a local sink finishes it.
	filed    atomic.Bool
	observed atomic.Bool

	mu       sync.Mutex
	spans    []Span
	dropped  int
	total    time.Duration
	finished bool
}

// Span is one operator's contribution to a trace.
type Span struct {
	// Op is the operator name.
	Op string `json:"op"`
	// Start is the span's offset from the trace's start.
	Start time.Duration `json:"start_ns"`
	// Duration is the operator's service time for the traced tuple.
	Duration time.Duration `json:"duration_ns"`
}

// NewTrace starts a root trace with a fresh random TraceContext. label
// identifies the originating pipeline or source for display; id
// disambiguates traces with equal labels within one process.
func NewTrace(id uint64, label string) *Trace {
	return &Trace{id: id, label: label, start: time.Now(), tc: newTraceContext()}
}

// ContinueTrace starts a local fragment of a trace begun elsewhere: it
// keeps the upstream trace ID, remembers the upstream span ID as its
// parent, and mints a fresh span ID for this fragment. It is what the
// tuple codec and broker call when a trace context arrives over the wire.
func ContinueTrace(tc TraceContext, label string) *Trace {
	t := &Trace{label: label, start: time.Now()}
	t.tc.TraceID = tc.TraceID
	t.parent = tc.SpanID
	fillRandom(t.tc.SpanID[:])
	t.tc.Sampled = true
	return t
}

// ID returns the trace's identifier.
func (t *Trace) ID() uint64 { return t.id }

// Context returns the fragment's cross-process context — what downstream
// processes should continue from. Its SpanID names this fragment, so a
// receiver's parent pointer leads back here.
func (t *Trace) Context() TraceContext { return t.tc }

// Relabel renames the fragment (e.g. once the consuming source knows its
// own name); a no-op on nil.
func (t *Trace) Relabel(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// maxSpansPerTrace bounds one trace's span timeline: a traced layer tuple
// that partitions into thousands of cells shares its trace with every
// derived tuple, and without a cap a single sample could hold a span per
// cell per operator. The earliest spans are kept; Snapshot reports how
// many were dropped.
const maxSpansPerTrace = 4096

// Record appends a span for op that finished now and took d. Durations
// below the clock's resolution are floored to 1ns so a recorded span is
// never indistinguishable from an absent one.
func (t *Trace) Record(op string, d time.Duration) {
	if t == nil {
		return
	}
	if d <= 0 {
		d = 1
	}
	end := time.Since(t.start)
	start := end - d
	if start < 0 {
		start = 0
	}
	t.mu.Lock()
	if !t.finished {
		if len(t.spans) < maxSpansPerTrace {
			t.spans = append(t.spans, Span{Op: op, Start: start, Duration: d})
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
}

// Finish seals the trace with its end-to-end duration. Only the first
// Finish wins (a tuple duplicated by a fan-out reaches several sinks); it
// reports whether this call was the one that sealed the trace.
func (t *Trace) Finish() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return false
	}
	t.finished = true
	t.total = time.Since(t.start)
	return true
}

// processName labels every fragment snapshot with the binary that
// recorded it, so merged cross-process timelines read "which process did
// what" without extra plumbing.
var processName = filepath.Base(os.Args[0])

// Snapshot returns an immutable copy of the trace.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{
		ID:           t.id,
		Label:        t.label,
		Start:        t.start,
		Total:        t.total,
		Finished:     t.finished,
		Spans:        append([]Span(nil), t.spans...),
		DroppedSpans: t.dropped,
		TraceID:      hex.EncodeToString(t.tc.TraceID[:]),
		SpanID:       hex.EncodeToString(t.tc.SpanID[:]),
		PID:          os.Getpid(),
		Process:      processName,
	}
	if t.parent != [8]byte{} {
		s.ParentSpanID = hex.EncodeToString(t.parent[:])
	}
	return s
}

// TraceSnapshot is a finished (or in-flight) trace fragment for reporting.
// The JSON form round-trips through /debug/trace/<id> into the strata-trace
// join tool.
type TraceSnapshot struct {
	ID       uint64        `json:"id"`
	Label    string        `json:"label"`
	Start    time.Time     `json:"start"`
	Total    time.Duration `json:"total_ns"`
	Finished bool          `json:"finished"`
	Spans    []Span        `json:"spans"`
	// DroppedSpans counts spans discarded after the per-trace cap
	// (maxSpansPerTrace) was reached.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// TraceID/SpanID identify this fragment across processes; ParentSpanID
	// is the fragment the tuple arrived from ("" at the root).
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// PID and Process say which OS process recorded the fragment.
	PID     int    `json:"pid,omitempty"`
	Process string `json:"process,omitempty"`
}

// TraceBuffer retains the most recently finished traces in a ring, so the
// slowest recent traces stay queryable without unbounded memory. Safe for
// concurrent use.
type TraceBuffer struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	size int

	// Aggregates over everything ever filed (not just the ring), exported
	// as the strata_trace_* series via Collect.
	spanDur   *Histogram
	fragments atomic.Uint64
	finished  atomic.Uint64

	labels []Label // attached to every Collect emission
}

// DefaultTraceCapacity is the ring size used when none is given.
const DefaultTraceCapacity = 128

// NewTraceBuffer creates a buffer retaining the last n finished traces
// (DefaultTraceCapacity when n <= 0).
func NewTraceBuffer(n int) *TraceBuffer {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	return &TraceBuffer{buf: make([]*Trace, n), spanDur: NewDurationHistogram()}
}

// WithLabels attaches labels to every metric the buffer emits through
// Collect (e.g. the owning query's name, so several buffers registered on
// one registry stay distinct series). Returns b for chaining at
// construction; not safe to call concurrently with Collect.
func (b *TraceBuffer) WithLabels(labels ...Label) *TraceBuffer {
	b.labels = labels
	return b
}

// Add files a trace fragment, evicting the oldest when full. Filing is
// idempotent per fragment: a connector tap may file a still-running trace
// when the tuple leaves the process, and the sink that later finishes it
// files it again — the ring keeps one entry, and the span metrics are
// observed once, when the fragment is first seen sealed.
func (b *TraceBuffer) Add(t *Trace) {
	if t == nil {
		return
	}
	if !t.filed.Swap(true) {
		b.fragments.Add(1)
		b.mu.Lock()
		b.buf[b.next] = t
		b.next = (b.next + 1) % len(b.buf)
		if b.size < len(b.buf) {
			b.size++
		}
		b.mu.Unlock()
	}
	t.mu.Lock()
	sealed := t.finished
	t.mu.Unlock()
	if sealed && !t.observed.Swap(true) {
		b.finished.Add(1)
		snap := t.Snapshot()
		for _, sp := range snap.Spans {
			b.spanDur.ObserveDuration(sp.Duration)
		}
	}
}

// Find returns every buffered fragment whose hex trace ID equals id —
// the per-process half of cross-process trace assembly, served by the
// /debug/trace/<id> endpoint.
func (b *TraceBuffer) Find(id string) []TraceSnapshot {
	var out []TraceSnapshot
	for _, s := range b.all() {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// Collect implements Collector: span-duration and fragment-count series
// for this buffer, labeled per WithLabels.
func (b *TraceBuffer) Collect(w *Writer) {
	w.Counter("strata_trace_fragments_total",
		"Trace fragments filed in this process's trace buffer.",
		float64(b.fragments.Load()), b.labels...)
	w.Counter("strata_trace_finished_total",
		"Trace fragments sealed by a sink in this process.",
		float64(b.finished.Load()), b.labels...)
	w.Histogram("strata_trace_span_duration_seconds",
		"Operator service time per span of sampled traces.",
		b.spanDur.Snapshot(), b.labels...)
}

// Len returns how many traces are buffered.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size
}

// Slowest returns up to k buffered traces sorted by total duration,
// slowest first — the per-tuple evidence behind a latency regression.
func (b *TraceBuffer) Slowest(k int) []TraceSnapshot {
	snaps := b.all()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Total > snaps[j].Total })
	if k > 0 && len(snaps) > k {
		snaps = snaps[:k]
	}
	return snaps
}

func (b *TraceBuffer) all() []TraceSnapshot {
	b.mu.Lock()
	out := make([]TraceSnapshot, 0, b.size)
	for _, t := range b.buf {
		if t != nil {
			out = append(out, t.Snapshot())
		}
	}
	b.mu.Unlock()
	return out
}

// Sampler decides which tuples get a trace: 1 in every N, deterministic
// and contention-free. The zero value samples nothing.
type Sampler struct {
	n   uint64
	ctr atomic.Uint64
	ids atomic.Uint64
}

// NewSampler creates a sampler tracing one in every n tuples (n <= 0
// disables sampling; n == 1 traces everything).
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return &Sampler{}
	}
	return &Sampler{n: uint64(n)}
}

// Sample reports whether the current tuple should carry a trace, and if
// so returns a fresh trace id.
func (s *Sampler) Sample() (uint64, bool) {
	if s == nil || s.n == 0 {
		return 0, false
	}
	if s.ctr.Add(1)%s.n != 0 {
		return 0, false
	}
	return s.ids.Add(1), true
}
