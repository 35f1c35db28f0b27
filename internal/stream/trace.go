package stream

import (
	"time"

	"strata/internal/telemetry"
)

// Traceable is implemented by tuple types that carry a sampled telemetry
// trace context. Operators that run user functions (FlatMap, Process, sinks)
// record a span per traced tuple; sinks finish the trace and hand it to the
// query's trace buffer. Tuples without a trace (the unsampled majority) cost
// one nil check.
type Traceable interface {
	// TraceContext returns the tuple's trace, or nil when the tuple was
	// not sampled. Derived tuples should propagate the same pointer so the
	// span timeline follows the tuple across operators.
	TraceContext() *telemetry.Trace
}

// The helpers below take *T and assert the POINTER against the interface.
// For a struct tuple type the pointer's method set is a superset of the
// value's, so the assertion succeeds whenever a value assertion would — but
// boxing a *T into an interface stores one word instead of heap-allocating a
// copy of the whole tuple, which is what `any(v)` costs for a struct the
// size of core.EventTuple on every tuple of every chunk. A value assertion
// remains as a fallback for tuple types that are themselves pointers or
// interfaces (where *T implements nothing).

// traceOf extracts the trace carried by *v, if any.
func traceOf[T any](v *T) *telemetry.Trace {
	if tr, ok := any(v).(Traceable); ok {
		return tr.TraceContext()
	}
	if tr, ok := any(*v).(Traceable); ok {
		return tr.TraceContext()
	}
	return nil
}

// eventTimeOf reports *v's event time via the Timestamped interface, boxing
// a pointer instead of the tuple itself.
func eventTimeOf[T any](v *T) (int64, bool) {
	if ts, ok := any(v).(Timestamped); ok {
		return ts.EventTime(), true
	}
	if ts, ok := any(*v).(Timestamped); ok {
		return ts.EventTime(), true
	}
	return 0, false
}

// observeDeparture records one produced tuple, advancing the watermark for
// operators that originate timestamped tuples (sources).
func observeDeparture[T any](s *OpStats, v *T) {
	s.addOut(1)
	if t, ok := eventTimeOf(v); ok {
		s.observeEventTime(t)
	}
}

// recordSpan stamps the operator's span on the tuple's trace, if it carries
// one.
func recordSpan[T any](name string, v *T, d time.Duration) {
	if tr := traceOf(v); tr != nil {
		tr.Record(name, d)
	}
}

// finishTrace completes the tuple's trace at a sink and, for the first sink
// to do so (fan-out can deliver the same trace to several), files it in the
// query's trace buffer.
func finishTrace[T any](name string, v *T, d time.Duration, buf *telemetry.TraceBuffer) {
	tr := traceOf(v)
	if tr == nil {
		return
	}
	tr.Record(name, d)
	if tr.Finish() && buf != nil {
		buf.Add(tr)
	}
}

// watchOutput installs a queue-depth probe over the operator's output
// channels; multi-output operators (Shuffle, Fanout) report the sum. Since
// edges carry chunks, depth and capacity are measured in chunks, not tuples
// (T instantiates as []tuple here).
func watchOutput[T any](s *OpStats, chs ...chan T) {
	total := 0
	for _, ch := range chs {
		total += cap(ch)
	}
	probed := make([]chan T, len(chs))
	copy(probed, chs)
	s.watchQueue(func() int {
		n := 0
		for _, ch := range probed {
			n += len(ch)
		}
		return n
	}, total)
}
