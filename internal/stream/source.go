package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Emit is the callback a SourceFunc uses to inject tuples into its output
// stream. It blocks when downstream back-pressure applies and returns a
// non-nil error when the query is shutting down, at which point the source
// should return promptly.
type Emit[T any] func(T) error

// SourceFunc produces the tuples of a stream. It should emit tuples in
// non-decreasing event-time order (the contract windowed operators rely on)
// and return nil when the stream is exhausted. Returning an error aborts the
// whole query with that error.
type SourceFunc[T any] func(ctx context.Context, emit Emit[T]) error

// PosEmit is the emit callback of a positioned source: pos is the tuple's
// replay position (e.g. its log offset). After the emit returns nil the
// source's resume position becomes pos+1, so a checkpoint taken afterwards
// records that replay should restart past this tuple.
type PosEmit[T any] func(pos uint64, v T) error

// PositionedSourceFunc produces tuples whose positions are tracked for
// checkpointing. Implementations must emit positions in strictly increasing
// order starting at the position the builder handed them.
type PositionedSourceFunc[T any] func(ctx context.Context, emit PosEmit[T]) error

// AddSource registers a source operator on q and returns its output stream.
// The source coalesces emitted tuples into chunks of up to the batch size,
// flushing a partial chunk when the linger deadline passes (DefaultBatchSize,
// DefaultLinger).
func AddSource[T any](q *Query, name string, fn SourceFunc[T], opts ...OpOption) *Stream[T] {
	o := applyOpts(opts)
	out := newStream[T](q, name, o.buffer)
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return out
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, out.ch)
	stats.installShed(o.shedGate, &q.knobs)
	q.addOperator(&sourceOp[T]{
		name: name, fn: fn, out: out.ch, g: q.qz.newGuard(),
		batch: q.batchSize, linger: q.linger, stats: stats,
	})
	return out
}

// AddPositionedSource registers a source whose replay position is tracked:
// checkpoints record, per source, the position the next emit would carry, so
// a restored pipeline re-runs fn starting from the recorded offset instead
// of from scratch. start seeds the position — a restore that happens before
// the source's first emit still checkpoints the right resume point.
func AddPositionedSource[T any](q *Query, name string, start uint64, fn PositionedSourceFunc[T], opts ...OpOption) *Stream[T] {
	o := applyOpts(opts)
	out := newStream[T](q, name, o.buffer)
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return out
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, out.ch)
	stats.installShed(o.shedGate, &q.knobs)
	s := &sourceOp[T]{
		name: name, pfn: fn, out: out.ch, g: q.qz.newGuard(),
		batch: q.batchSize, linger: q.linger, stats: stats,
	}
	s.tracked = true
	s.pos.Store(start)
	q.addOperator(s)
	return out
}

type sourceOp[T any] struct {
	name   string
	fn     SourceFunc[T] // plain source (exactly one of fn/pfn is set)
	pfn    PositionedSourceFunc[T]
	out    chan []T
	g      *opGuard
	batch  int
	linger time.Duration
	stats  *OpStats

	// tracked marks a positioned source; pos is the resume position the next
	// checkpoint records (advanced to pos+1 after each successful emit, from
	// inside the emit's gate span, so the coordinator — which waits for all
	// spans to drain — always reads a value consistent with what was
	// emitted).
	tracked bool
	pos     atomic.Uint64
}

func (s *sourceOp[T]) opName() string     { return s.name }
func (s *sourceOp[T]) resumePos() uint64  { return s.pos.Load() }
func (s *sourceOp[T]) isPositioned() bool { return s.tracked }

func (s *sourceOp[T]) run(ctx context.Context) (err error) {
	// Deferred so that on every exit path — including a panicking
	// SourceFunc — the chunker is closed (stopping its linger timer, so no
	// late fire touches the channel) before the output channel closes, and
	// the close itself waits out any checkpoint pause (end-of-stream must
	// not cascade into operators mid-snapshot).
	defer closeGated(s.g, s.out)
	defer s.g.exit(&err)
	qz := s.g.qz
	ck := newChunker(ctx, qz, s.out, s.batch, s.linger, s.stats)
	qz.addFlusher(ck.flushNow)
	defer func() {
		if cerr := ck.close(); err == nil {
			err = cerr
		}
		// A source interrupted by shutdown is not a query failure: the
		// cancellation cause is reported by Run's context, and treating it
		// as an operator error would mask the real first error.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = nil
		}
	}()
	defer recoverPanic(&err)
	if s.pfn != nil {
		return s.pfn(ctx, func(pos uint64, v T) error {
			if err := qz.enter(ctx); err != nil {
				return err
			}
			defer qz.exitEmit()
			if err := ck.emit(v); err != nil {
				return err
			}
			// Departure accounting happens inside the chunker so shed
			// tuples never count as produced; the position still advances
			// past them (a shed decision is not replayed).
			s.pos.Store(pos + 1)
			return nil
		})
	}
	return s.fn(ctx, func(v T) error {
		if err := qz.enter(ctx); err != nil {
			return err
		}
		defer qz.exitEmit()
		return ck.emit(v)
	})
}

// FromSlice builds a SourceFunc that replays the given tuples in order. The
// slice is not copied; callers must not mutate it while the query runs.
func FromSlice[T any](items []T) SourceFunc[T] {
	return func(ctx context.Context, emit Emit[T]) error {
		for _, it := range items {
			if err := emit(it); err != nil {
				return err
			}
		}
		return nil
	}
}
