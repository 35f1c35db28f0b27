package stream

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// JoinFunc combines one left and one right tuple. Returning ok=false rejects
// the pair (it is how join predicates beyond the key and time-distance
// constraints are expressed).
type JoinFunc[L, R, Out any] func(l L, r R) (Out, bool)

// Join registers a two-input stateful operator matching the paper's Join
// definition: it produces join(l, r) for every pair with equal group-by keys
// satisfying |l.τ − r.τ| ≤ ws (and the predicate encoded in join's ok
// result). Each input must be timestamp-ordered; the two inputs may
// interleave arbitrarily, as the operator buffers both sides and purges each
// by the other side's event-time horizon (maxL − ws for the right buffer,
// maxR − ws for the left) the moment that horizon advances.
func Join[L Timestamped, R Timestamped, K comparable, Out any](
	q *Query,
	name string,
	left *Stream[L],
	right *Stream[R],
	ws int64,
	keyL KeyFunc[L, K],
	keyR KeyFunc[R, K],
	join JoinFunc[L, R, Out],
	opts ...OpOption,
) *Stream[Out] {
	o := applyOpts(opts)
	out := newStream[Out](q, name, o.buffer)
	left.claim(q, name)
	right.claim(q, name)
	if keyL == nil || keyR == nil || join == nil {
		q.recordErr(ErrNilUDF)
		return out
	}
	if ws < 0 {
		q.recordErr(fmt.Errorf("%w (ws=%d)", ErrBadWindow, ws))
		return out
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, out.ch)
	stats.installShed(o.shedGate, &q.knobs)
	q.addOperator(&joinOp[L, R, K, Out]{
		name:     name,
		left:     left.ch,
		right:    right.ch,
		out:      out.ch,
		ws:       ws,
		keyL:     keyL,
		keyR:     keyR,
		join:     join,
		g:        q.qz.newGuard(),
		batch:    q.batchSize,
		lPool:    chunkPoolFor[L](),
		rPool:    chunkPoolFor[R](),
		recycleL: !left.shared,
		recycleR: !right.shared,
		stats:    stats,
		lbuf:     make(map[K][]L),
		rbuf:     make(map[K][]R),
	})
	return out
}

type joinOp[L Timestamped, R Timestamped, K comparable, Out any] struct {
	name               string
	left               chan []L
	right              chan []R
	out                chan []Out
	ws                 int64
	keyL               KeyFunc[L, K]
	keyR               KeyFunc[R, K]
	join               JoinFunc[L, R, Out]
	g                  *opGuard
	batch              int
	stats              *OpStats
	lPool, rPool       *sync.Pool
	recycleL, recycleR bool

	lbuf             map[K][]L
	rbuf             map[K][]R
	maxL, maxR       int64
	sawL, sawR       bool
	lClosed, rClosed bool
}

func (j *joinOp[L, R, K, Out]) opName() string { return j.name }

func (j *joinOp[L, R, K, Out]) opState() Snapshotter { return j }

func (j *joinOp[L, R, K, Out]) run(ctx context.Context) (err error) {
	defer closeGated(j.g, j.out)
	defer j.g.exit(&err)
	defer recoverPanic(&err)
	em := newChunkEmitter(ctx, j.g.qz, j.out, j.batch, j.stats)
	emitFn := Emit[Out](em.emit)
	lch, rch := j.left, j.right
	for lch != nil || rch != nil {
		j.g.idle()
		select {
		case lc, ok := <-lch:
			j.g.recv(ok)
			if !ok {
				lch = nil
				j.lClosed = true
				// No further left tuples: the right buffer can
				// never be matched again.
				j.rbuf = make(map[K][]R)
				continue
			}
			j.stats.addIn(int64(len(lc)))
			start := time.Now()
			for _, l := range lc {
				if err := j.ingestLeft(l, emitFn); err != nil {
					return err
				}
			}
			j.stats.observeServiceChunk(time.Since(start), len(lc))
			if j.recycleL {
				recycleChunk(j.lPool, lc)
			}
			if j.sawL {
				j.stats.observeEventTime(j.maxL)
			}
			if err := em.flush(); err != nil {
				return err
			}
		case rc, ok := <-rch:
			j.g.recv(ok)
			if !ok {
				rch = nil
				j.rClosed = true
				j.lbuf = make(map[K][]L)
				continue
			}
			j.stats.addIn(int64(len(rc)))
			start := time.Now()
			for _, r := range rc {
				if err := j.ingestRight(r, emitFn); err != nil {
					return err
				}
			}
			j.stats.observeServiceChunk(time.Since(start), len(rc))
			if j.recycleR {
				recycleChunk(j.rPool, rc)
			}
			if j.sawR {
				j.stats.observeEventTime(j.maxR)
			}
			if err := em.flush(); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return em.flush()
}

// ingestLeft and ingestRight match a tuple against the other side's buffer
// and buffer it for future matches. A buffered tuple can match a future
// tuple of the other side only while its event time is at or above that
// side's horizon: future event times are at least the side's maximum, so
// anything below max − ws is out of reach for good. An ingest that advances
// one side's maximum therefore purges the other side's buffer, and a tuple
// already below the other side's horizon is not buffered at all — a layer's
// tuples leave the join as soon as both sides have moved past it.
func (j *joinOp[L, R, K, Out]) ingestLeft(l L, emitFn Emit[Out]) error {
	// The watermark advances once per chunk (in run) from maxL/maxR.
	ts := l.EventTime()
	if !j.sawL || ts > j.maxL {
		j.maxL = ts
		j.sawL = true
		purgeBefore(j.rbuf, ts-j.ws)
	}
	k := j.keyL(l)
	for _, r := range j.rbuf[k] {
		if absDiff(ts, r.EventTime()) > j.ws {
			continue
		}
		if out, ok := j.join(l, r); ok {
			if err := emitFn(out); err != nil {
				return err
			}
		}
	}
	if !j.rClosed && (!j.sawR || ts >= j.maxR-j.ws) {
		j.lbuf[k] = append(j.lbuf[k], l)
	}
	return nil
}

func (j *joinOp[L, R, K, Out]) ingestRight(r R, emitFn Emit[Out]) error {
	ts := r.EventTime()
	if !j.sawR || ts > j.maxR {
		j.maxR = ts
		j.sawR = true
		purgeBefore(j.lbuf, ts-j.ws)
	}
	k := j.keyR(r)
	for _, l := range j.lbuf[k] {
		if absDiff(l.EventTime(), ts) > j.ws {
			continue
		}
		if out, ok := j.join(l, r); ok {
			if err := emitFn(out); err != nil {
				return err
			}
		}
	}
	if !j.lClosed && (!j.sawL || ts >= j.maxL-j.ws) {
		j.rbuf[k] = append(j.rbuf[k], r)
	}
	return nil
}

// purgeBefore drops every buffered tuple with event time below horizon,
// deleting keys left empty.
func purgeBefore[K comparable, T Timestamped](bufs map[K][]T, horizon int64) {
	for k, buf := range bufs {
		if buf = dropBefore(buf, horizon); len(buf) == 0 {
			delete(bufs, k)
		} else {
			bufs[k] = buf
		}
	}
}

// dropBefore removes the (timestamp-ordered) prefix of buf with event time
// below horizon, returning a slice backed by fresh storage when anything was
// dropped so the old backing array can be collected.
func dropBefore[T Timestamped](buf []T, horizon int64) []T {
	i := 0
	for i < len(buf) && buf[i].EventTime() < horizon {
		i++
	}
	if i == 0 {
		return buf
	}
	kept := make([]T, len(buf)-i)
	copy(kept, buf[i:])
	return kept
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
