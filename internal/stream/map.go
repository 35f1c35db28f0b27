package stream

import (
	"context"
	"sync"
	"time"
)

// MapFunc transforms one input tuple into exactly one output tuple.
type MapFunc[In, Out any] func(In) (Out, error)

// FlatMapFunc transforms one input tuple into zero or more output tuples by
// calling emit once per output. It must not retain emit after returning.
type FlatMapFunc[In, Out any] func(in In, emit Emit[Out]) error

// FilterFunc decides whether a tuple is forwarded (true) or dropped (false).
type FilterFunc[T any] func(T) (bool, error)

// Map registers a one-to-one stateless operator.
func Map[In, Out any](q *Query, name string, in *Stream[In], fn MapFunc[In, Out], opts ...OpOption) *Stream[Out] {
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return newStream[Out](q, name, 0)
	}
	return FlatMap(q, name, in, func(v In, emit Emit[Out]) error {
		out, err := fn(v)
		if err != nil {
			return err
		}
		return emit(out)
	}, opts...)
}

// Filter registers a stateless operator that forwards only tuples for which
// fn returns true.
func Filter[T any](q *Query, name string, in *Stream[T], fn FilterFunc[T], opts ...OpOption) *Stream[T] {
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return newStream[T](q, name, 0)
	}
	return FlatMap(q, name, in, func(v T, emit Emit[T]) error {
		keep, err := fn(v)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
		return emit(v)
	}, opts...)
}

// FlatMap registers a one-to-many stateless operator. It is the most general
// stateless shape; Map and Filter are implemented on top of it.
func FlatMap[In, Out any](q *Query, name string, in *Stream[In], fn FlatMapFunc[In, Out], opts ...OpOption) *Stream[Out] {
	o := applyOpts(opts)
	out := newStream[Out](q, name, o.buffer)
	in.claim(q, name)
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return out
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, out.ch)
	stats.installShed(o.shedGate, &q.knobs)
	q.addOperator(&flatMapOp[In, Out]{
		name: name, in: in.ch, out: out.ch, fn: fn, g: q.qz.newGuard(), batch: q.batchSize, stats: stats,
		inPool: chunkPoolFor[In](), recycle: !in.shared,
	})
	return out
}

type flatMapOp[In, Out any] struct {
	name    string
	in      chan []In
	out     chan []Out
	fn      FlatMapFunc[In, Out]
	g       *opGuard
	batch   int
	stats   *OpStats
	inPool  *sync.Pool
	recycle bool
}

func (m *flatMapOp[In, Out]) opName() string { return m.name }

func (m *flatMapOp[In, Out]) run(ctx context.Context) (err error) {
	// Deferred in LIFO order: panics convert to err first, then the guard
	// records a failing exit with the quiescer, then the output close waits
	// out any checkpoint pause. Every operator run follows this pattern.
	defer closeGated(m.g, m.out)
	defer m.g.exit(&err)
	defer recoverPanic(&err)
	em := newChunkEmitter(ctx, m.g.qz, m.out, m.batch, m.stats)
	spans := &pendingSpans[In]{name: m.name}
	em.beforeSend = spans.record
	// One emit closure for the operator's lifetime: binding em.emit at every
	// fn call would allocate a method value per tuple.
	emitFn := Emit[Out](em.emit)
	for {
		m.g.idle()
		select {
		case chunk, ok := <-m.in:
			m.g.recv(ok)
			if !ok {
				return em.flush()
			}
			observeChunkArrival(m.stats, chunk)
			start := time.Now()
			spans.open(chunk, start)
			for _, v := range chunk {
				if err := m.fn(v, emitFn); err != nil {
					return err
				}
			}
			m.stats.observeServiceChunk(time.Since(start), len(chunk))
			spans.record()
			if m.recycle {
				recycleChunk(m.inPool, chunk)
			}
			// Flush the partial output chunk before blocking for more
			// input: batching must never hold completed work hostage.
			if err := em.flush(); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
