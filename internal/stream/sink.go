package stream

import (
	"context"
	"sync"
	"time"

	"strata/internal/telemetry"
)

// SinkFunc consumes the tuples that reach the end of a pipeline. Returning
// an error aborts the whole query with that error.
type SinkFunc[T any] func(T) error

// AddSink registers a sink operator that consumes stream in. A sink with a
// shed gate (WithShedGate), while deadline shedding is engaged, drops
// expired tuples at the doorstep — after they are dequeued but before fn spends service time on
// them — which is where a slow sink's backlog actually ages out.
func AddSink[T any](q *Query, name string, in *Stream[T], fn SinkFunc[T], opts ...OpOption) {
	in.claim(q, name)
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return
	}
	o := applyOpts(opts)
	stats := q.metrics.Op(name)
	stats.installShed(o.shedGate, &q.knobs)
	q.addOperator(&sinkOp[T]{
		name: name, in: in.ch, fn: fn, g: q.qz.newGuard(), stats: stats,
		traces: q.traces, gate: newShedGate[T](nil, stats),
		pool: chunkPoolFor[T](), recycle: !in.shared,
	})
}

type sinkOp[T any] struct {
	name    string
	in      chan []T
	fn      SinkFunc[T]
	g       *opGuard
	stats   *OpStats
	traces  *telemetry.TraceBuffer
	gate    *shedGate[T]
	pool    *sync.Pool
	recycle bool
}

func (s *sinkOp[T]) opName() string { return s.name }

func (s *sinkOp[T]) run(ctx context.Context) (err error) {
	defer s.g.exit(&err)
	defer recoverPanic(&err)
	return drain(ctx, s.g, s.in, s.consume)
}

// consume runs fn over one input chunk.
func (s *sinkOp[T]) consume(chunk []T) error {
	observeChunkArrival(s.stats, chunk)
	orig := chunk
	if s.gate != nil {
		// Chunks are forwarded by reference downstream of Fanout, so the
		// backing array may be shared with a sibling branch — never
		// compact in place. Copy lazily: the all-admitted common case
		// allocates nothing, and each tuple is admitted exactly once
		// (admit counts what it sheds).
		kept := chunk
		for i := range chunk {
			if s.gate.admit(&chunk[i]) {
				continue
			}
			kept = append(make([]T, 0, len(chunk)-1), chunk[:i]...)
			for j := i + 1; j < len(chunk); j++ {
				if s.gate.admit(&chunk[j]) {
					kept = append(kept, chunk[j])
				}
			}
			break
		}
		chunk = kept
	}
	start := time.Now()
	for _, v := range chunk {
		if err := s.fn(v); err != nil {
			return err
		}
	}
	d := time.Since(start)
	s.stats.observeServiceChunk(d, len(chunk))
	if len(chunk) > 0 {
		per := d / time.Duration(len(chunk))
		for i := range chunk {
			finishTrace(s.name, &chunk[i], per, s.traces)
		}
	}
	// The sink is the end of the line for its chunk: recycle it (unless it
	// is shared with a Fanout sibling). A lazily-copied kept slice is left
	// to the collector — that path only runs while shedding.
	if s.recycle {
		recycleChunk(s.pool, orig)
	}
	return nil
}

// ToSlice returns a SinkFunc that appends every tuple to *dst, plus nothing
// else. It is intended for tests and small collections; the slice grows
// unboundedly. Not safe for use from multiple sinks concurrently.
func ToSlice[T any](dst *[]T) SinkFunc[T] {
	return func(v T) error {
		*dst = append(*dst, v)
		return nil
	}
}

// Discard returns a SinkFunc that drops every tuple. Useful in benchmarks
// where only operator metrics matter.
func Discard[T any]() SinkFunc[T] {
	return func(T) error { return nil }
}
