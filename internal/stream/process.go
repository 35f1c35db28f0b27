package stream

import (
	"context"
	"sync"
	"time"
)

// EndFunc runs once when a Process operator's input is exhausted, letting
// stateful operators flush buffered results before the stream closes.
type EndFunc[Out any] func(emit Emit[Out]) error

// Process registers a one-to-many operator, the engine's one shape for
// one-input transforms: FlatMap, Map, Filter and Aggregate are all built on
// it. fn runs per tuple (the engine runs each operator in a single
// goroutine, so state fn keeps needs no locking), and onEnd (optional) runs
// once at end-of-stream.
//
// state (optional) is the operator's checkpointed state: Query.Checkpoint
// stores its Snapshot blob under the operator's name, and RestoreCheckpoint
// hands that blob back to its Restore. It must cover everything fn and
// onEnd keep across tuples; an operator whose fn keeps state with a nil
// state loses that state on recovery. An Aggregate is a Process whose state
// is its panes; STRATA's correlateEvents is an Aggregate.
func Process[In, Out any](
	q *Query,
	name string,
	in *Stream[In],
	fn FlatMapFunc[In, Out],
	onEnd EndFunc[Out],
	state Snapshotter,
	opts ...OpOption,
) *Stream[Out] {
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
	q.addOperator(&processOp[In, Out]{
		name: name, in: in.ch, out: out.ch, fn: fn, onEnd: onEnd, state: state,
		g: q.qz.newGuard(), batch: q.batchSize, stats: stats,
		inPool: chunkPoolFor[In](), recycle: !in.shared,
	})
	return out
}

type processOp[In, Out any] struct {
	name    string
	in      chan []In
	out     chan []Out
	fn      FlatMapFunc[In, Out]
	onEnd   EndFunc[Out]
	state   Snapshotter
	g       *opGuard
	batch   int
	stats   *OpStats
	inPool  *sync.Pool
	recycle bool
}

func (p *processOp[In, Out]) opName() string { return p.name }

func (p *processOp[In, Out]) opState() Snapshotter { return p.state }

func (p *processOp[In, Out]) run(ctx context.Context) (err error) {
	// Deferred in LIFO order: panics convert to err first, then the guard
	// records a failing exit with the quiescer, then the output close waits
	// out any checkpoint pause. Every operator run follows this pattern.
	defer closeGated(p.g, p.out)
	defer p.g.exit(&err)
	defer recoverPanic(&err)
	em := newChunkEmitter(ctx, p.g.qz, p.out, p.batch, p.stats)
	spans := &pendingSpans[In]{name: p.name}
	em.beforeSend = spans.record
	// One emit closure for the operator's lifetime: binding em.emit at every
	// fn call would allocate a method value per tuple.
	emitFn := Emit[Out](em.emit)
	err = drain(ctx, p.g, p.in, func(chunk []In) error {
		observeChunkArrival(p.stats, chunk)
		start := time.Now()
		spans.open(chunk, start)
		for _, v := range chunk {
			if err := p.fn(v, emitFn); err != nil {
				return err
			}
		}
		p.stats.observeServiceChunk(time.Since(start), len(chunk))
		spans.record()
		if p.recycle {
			recycleChunk(p.inPool, chunk)
		}
		// Flush the partial output chunk before blocking for more input:
		// batching must never hold completed work hostage.
		return em.flush()
	})
	if err != nil {
		return err
	}
	if p.onEnd != nil {
		if err := p.onEnd(emitFn); err != nil {
			return err
		}
	}
	return em.flush()
}
