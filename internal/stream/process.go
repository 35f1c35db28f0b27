package stream

import (
	"context"
	"sync"
	"time"
)

// EndFunc runs once when a Process operator's input is exhausted, letting
// stateful operators flush buffered results before the stream closes.
type EndFunc[Out any] func(emit Emit[Out]) error

// Process registers a stateful one-to-many operator: fn runs per tuple (and
// may keep state in its closure — the engine runs each operator in a single
// goroutine, so no locking is needed), and onEnd (optional) runs once at
// end-of-stream. It is the building block for custom stateful logic that
// does not fit the Aggregate/Join window model, such as STRATA's
// correlateEvents layer tracking.
func Process[In, Out any](
	q *Query,
	name string,
	in *Stream[In],
	fn FlatMapFunc[In, Out],
	onEnd EndFunc[Out],
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
		name: name, in: in.ch, out: out.ch, fn: fn, onEnd: onEnd, g: q.qz.newGuard(), batch: q.batchSize, stats: stats,
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
	g       *opGuard
	batch   int
	stats   *OpStats
	inPool  *sync.Pool
	recycle bool
}

func (p *processOp[In, Out]) opName() string { return p.name }

func (p *processOp[In, Out]) run(ctx context.Context) (err error) {
	defer closeGated(p.g, p.out)
	defer p.g.exit(&err)
	defer recoverPanic(&err)
	em := newChunkEmitter(ctx, p.g.qz, p.out, p.batch, p.stats)
	emitFn := Emit[Out](em.emit)
	for {
		p.g.idle()
		select {
		case chunk, ok := <-p.in:
			p.g.recv(ok)
			if !ok {
				if p.onEnd != nil {
					if err := p.onEnd(emitFn); err != nil {
						return err
					}
				}
				return em.flush()
			}
			observeChunkArrival(p.stats, chunk)
			start := time.Now()
			for _, v := range chunk {
				if err := p.fn(v, emitFn); err != nil {
					return err
				}
			}
			d := time.Since(start)
			p.stats.observeServiceChunk(d, len(chunk))
			recordChunkSpans(p.name, chunk, d)
			if p.recycle {
				recycleChunk(p.inPool, chunk)
			}
			if err := em.flush(); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
