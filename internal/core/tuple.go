// Package core implements STRATA, the paper's contribution: a framework for
// data-driven in-situ monitoring of PBF-LB additive-manufacturing processes.
//
// STRATA exposes the API of the paper's Table 1 — Store/Get, AddSource,
// Fuse, Partition, DetectEvent, CorrelateEvents — and compiles each call
// into native operators of the underlying stream processing engine
// (internal/stream), so pipelines inherit parallel execution and the engine
// stays replaceable. Data at module boundaries can additionally be published
// on a pub/sub broker (internal/pubsub), mirroring the paper's
// Kafka-connected Raw Data / Event connectors, and data-at-rest lives in an
// embedded key-value store (internal/kvstore) standing in for RocksDB.
//
// Pipeline topology and guarantees:
//
//   - Each stream carries EventTuples with the paper's schema
//     ⟨τ, job, layer[, specimen, portion], [k:v, ...]⟩.
//   - Sources emit one tuple per completed layer, timestamp-ordered.
//   - Partition materializes the specimen/portion metadata; the first
//     partition (or detect) stage after a layer-granular stream also emits
//     internal end-of-layer markers, which CorrelateEvents uses to know a
//     layer is complete for a specimen without waiting for the next layer.
//   - Parallel stages hash on (job, specimen), so all tuples of one
//     specimen traverse one branch in order — the condition under which
//     markers stay behind the events they terminate.
package core

import (
	"fmt"
	"time"

	"strata/internal/otimage"
	"strata/internal/telemetry"
)

// Default metadata values for tuples that have not been partitioned yet
// (the paper: "STRATA assumes each tuple produced by a Source or method
// fuse is to be processed as a whole, and sets default values").
const (
	DefaultSpecimen = "_all"
	DefaultPortion  = "_whole"

	// markerPortion marks internal end-of-layer punctuation tuples. They
	// never reach user functions or Deliver sinks.
	markerPortion = "_strata_layer_marker"
)

// EventTuple is STRATA's tuple: event-time and AM metadata plus a free-form
// key/value payload, written ⟨τ, job, layer, specimen, portion, [k:v,...]⟩
// in the paper.
type EventTuple struct {
	// TS is the event time τ (for raw tuples: the moment the layer's data
	// became available at the machine).
	TS time.Time
	// Job identifies the printing job.
	Job string
	// Layer is the 1-based layer number the data refers to.
	Layer int
	// Specimen and Portion identify the disjoint part of the layer this
	// tuple refers to (set by Partition; defaults before that).
	Specimen string
	Portion  string
	// KV is the payload. Values are one of: string, bool, int64, float64,
	// []byte, *otimage.Image, otimage.View, otimage.Cell (the types the
	// connector codec supports). A View is an in-process alias into its
	// underlying image; it crosses a connector as the standalone image of
	// its window, losing its origin — carry the origin in separate KV
	// entries when downstream stages need plate coordinates across a wire.
	KV map[string]any

	// Cell carries per-portion cell statistics inline when the tuple
	// represents one cell of a partitioned layer (isolateCell → labelCell).
	// The hot path ships on the order of 10⁶ cells per layer sweep; boxing
	// each into KV would cost two heap allocations per cell, so the cell
	// rides by value instead. A zero Region means "no cell payload" — use
	// CellStats. Crosses connectors as a codec trailer.
	Cell otimage.Cell

	// AvailableAt is when all source data contributing to this tuple had
	// reached STRATA — the reference point of the paper's latency metric.
	// Operators propagate the maximum across fused inputs.
	AvailableAt time.Time

	// Priority is the tuple's shedding priority (higher = more important;
	// 0 = background). Under overload, with a shed floor configured, shed
	// gates discard tuples below it on full edges; fused tuples carry the
	// maximum across inputs.
	Priority int

	// Deadline is the wall-clock instant after which the tuple's result is
	// worthless (zero = none). Under overload, shed gates discard expired
	// tuples at admission, and DeliverDurable suppresses (and counts)
	// expired effects instead of committing them late. Fused tuples carry
	// the earliest non-zero deadline across inputs.
	Deadline time.Time

	// Trace is the sampled per-tuple trace context (nil for the unsampled
	// majority). It is attached by AddSource when the framework was built
	// with WithTraceSampling, shared by pointer across every derived tuple,
	// and never serialized by the connector codec — traces are
	// process-local diagnostics, not data.
	Trace *telemetry.Trace
}

// EventTime implements stream.Timestamped (microseconds).
func (t EventTuple) EventTime() int64 { return t.TS.UnixMicro() }

// TraceContext implements stream.Traceable, letting the SPE record
// per-operator spans on sampled tuples and finish traces at sinks.
func (t EventTuple) TraceContext() *telemetry.Trace { return t.Trace }

// isMarker reports whether the tuple is internal end-of-layer punctuation.
func (t *EventTuple) isMarker() bool { return t.Portion == markerPortion }

// ShedPriority implements stream.Prioritized.
func (t EventTuple) ShedPriority() int { return t.Priority }

// ShedDeadline implements stream.Deadlined.
func (t EventTuple) ShedDeadline() time.Time { return t.Deadline }

// Sheddable implements stream.Sheddable: end-of-layer markers are
// punctuation that windowed stages need to close, so shed gates must always
// forward them.
func (t EventTuple) Sheddable() bool { return !t.isMarker() }

// earliestDeadline returns the sooner of two deadlines, treating the zero
// time as "none" — the fusion rule for deadlines (the combined result is
// only useful while every input still is).
func earliestDeadline(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() || a.Before(b) {
		return a
	}
	return b
}

// newMarker builds the punctuation tuple closing (job, layer, specimen).
// It inherits the closing tuple's trace so correlate results triggered by
// the marker stay attributable to the sampled tuple's journey.
func newMarker(from *EventTuple, specimen string) EventTuple {
	return EventTuple{
		TS:          from.TS,
		Job:         from.Job,
		Layer:       from.Layer,
		Specimen:    specimen,
		Portion:     markerPortion,
		AvailableAt: from.AvailableAt,
		Priority:    from.Priority,
		Trace:       from.Trace,
	}
}

// WithKV returns a shallow copy of t with key set to value in a copied KV
// map (the original tuple's map is never mutated — tuples are shared across
// fan-outs).
func (t *EventTuple) WithKV(key string, value any) EventTuple {
	kv := make(map[string]any, len(t.KV)+1)
	for k, v := range t.KV {
		kv[k] = v
	}
	kv[key] = value
	c := *t
	c.KV = kv
	return c
}

// String returns a compact, human-readable rendering. It keeps a value
// receiver, like the stream interface methods above, so that a tuple
// printed by value formats the same as one printed by pointer.
func (t EventTuple) String() string {
	return fmt.Sprintf("⟨%s job=%s layer=%d spec=%s portion=%s |kv|=%d⟩",
		t.TS.Format("15:04:05.000"), t.Job, t.Layer, t.Specimen, t.Portion, len(t.KV))
}

// Typed KV accessors. Each returns the zero value and false when the key is
// absent or has a different type.

// GetString returns the string payload value under key.
func (t *EventTuple) GetString(key string) (string, bool) {
	v, ok := t.KV[key].(string)
	return v, ok
}

// GetInt returns the int64 payload value under key.
func (t *EventTuple) GetInt(key string) (int64, bool) {
	v, ok := t.KV[key].(int64)
	return v, ok
}

// GetFloat returns the float64 payload value under key.
func (t *EventTuple) GetFloat(key string) (float64, bool) {
	v, ok := t.KV[key].(float64)
	return v, ok
}

// GetBool returns the bool payload value under key.
func (t *EventTuple) GetBool(key string) (bool, bool) {
	v, ok := t.KV[key].(bool)
	return v, ok
}

// GetBytes returns the []byte payload value under key.
func (t *EventTuple) GetBytes(key string) ([]byte, bool) {
	v, ok := t.KV[key].([]byte)
	return v, ok
}

// GetImage returns the *otimage.Image payload value under key.
func (t *EventTuple) GetImage(key string) (*otimage.Image, bool) {
	v, ok := t.KV[key].(*otimage.Image)
	return v, ok
}

// GetView returns the otimage.View payload value under key.
func (t *EventTuple) GetView(key string) (otimage.View, bool) {
	v, ok := t.KV[key].(otimage.View)
	return v, ok
}

// GetCell returns the otimage.Cell payload value under key.
func (t *EventTuple) GetCell(key string) (otimage.Cell, bool) {
	v, ok := t.KV[key].(otimage.Cell)
	return v, ok
}

// CellStats returns the tuple's inline cell payload. ok is false when the
// tuple carries none (a cell's pixel region is never empty).
func (t *EventTuple) CellStats() (otimage.Cell, bool) {
	return t.Cell, !t.Cell.Region.Empty()
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
