package stream

import (
	"container/heap"
	"fmt"
)

// WindowSpec describes the time windows of an Aggregate operator, in the
// same units as Timestamped.EventTime (microseconds). For each group-by key,
// windows cover the periods [l*Advance, l*Advance+Size) for integer l, as in
// the paper's Aggregate definition.
//
// Slack is an optional out-of-order tolerance: a window is flushed only when
// the observed event time passes its end by at least Slack. Use it after
// Merge, whose output interleaves parallel branches in arrival order.
type WindowSpec struct {
	Size    int64
	Advance int64
	Slack   int64
}

// Tumbling returns a WindowSpec for non-overlapping windows of the given
// size.
func Tumbling(size int64) WindowSpec { return WindowSpec{Size: size, Advance: size} }

// Window is the unit handed to an AggregateFunc: all tuples of one group-by
// key falling in [Start, End), in arrival order.
type Window[K comparable, In any] struct {
	Key    K
	Start  int64
	End    int64
	Tuples []In
}

// AggregateFunc turns one closed window into zero or more output tuples.
// The Tuples slice is owned by the callee after the call; the engine does
// not reuse it.
type AggregateFunc[K comparable, In, Out any] func(w Window[K, In], emit Emit[Out]) error

// KeyFunc extracts the group-by key of a tuple.
type KeyFunc[In any, K comparable] func(In) K

// Aggregate registers a keyed, windowed stateful operator. Input event times
// must be non-decreasing (up to spec.Slack); tuples arriving after their
// window has been flushed are dropped and counted on the operator's stats as
// consumed-but-not-produced.
//
// Windows are flushed in (end time, creation order) order, both as event
// time advances and at end-of-stream.
func Aggregate[In Timestamped, K comparable, Out any](
	q *Query,
	name string,
	in *Stream[In],
	spec WindowSpec,
	key KeyFunc[In, K],
	agg AggregateFunc[K, In, Out],
	opts ...OpOption,
) *Stream[Out] {
	if key == nil || agg == nil {
		q.recordErr(ErrNilUDF)
		return Process[In, Out](q, name, in, nil, nil, nil, opts...)
	}
	if spec.Size <= 0 || spec.Advance <= 0 {
		q.recordErr(fmt.Errorf("%w (size=%d advance=%d)", ErrBadWindow, spec.Size, spec.Advance))
		return Process[In, Out](q, name, in, nil, nil, nil, opts...)
	}
	a := &aggregateOp[In, K, Out]{
		name: name, spec: spec, key: key, agg: agg,
		open: make(map[winKey[K]]*winState[In]),
	}
	return Process(q, name, in, a.ingest, a.flushAll, a, opts...)
}

type winKey[K comparable] struct {
	key   K
	start int64
}

type winState[In any] struct {
	end    int64
	seq    int64 // creation order, tiebreak for deterministic flushing
	tuples []In
	closed bool
}

// aggregateOp is the window state of one Aggregate operator: the fn, onEnd
// and state of its Process.
type aggregateOp[In Timestamped, K comparable, Out any] struct {
	name string
	spec WindowSpec
	key  KeyFunc[In, K]
	agg  AggregateFunc[K, In, Out]

	open    map[winKey[K]]*winState[In]
	pending winHeap[K]
	nextSeq int64
	maxTS   int64
	sawAny  bool
}

func (a *aggregateOp[In, K, Out]) ingest(v In, emitFn Emit[Out]) error {
	ts := v.EventTime()
	if !a.sawAny || ts > a.maxTS {
		a.maxTS = ts
		a.sawAny = true
	}
	k := a.key(v)
	// Assign v to every window [l*Advance, l*Advance+Size) containing ts.
	lMin := floorDiv(ts-a.spec.Size, a.spec.Advance) + 1
	lMax := floorDiv(ts, a.spec.Advance)
	for l := lMin; l <= lMax; l++ {
		start := l * a.spec.Advance
		end := start + a.spec.Size
		if end+a.spec.Slack <= a.maxTS {
			// The window was (or would already have been) flushed:
			// the tuple is late beyond the slack. Drop it for this
			// window.
			continue
		}
		wk := winKey[K]{key: k, start: start}
		st, ok := a.open[wk]
		if !ok {
			st = &winState[In]{end: end, seq: a.nextSeq}
			a.nextSeq++
			a.open[wk] = st
			heap.Push(&a.pending, winRef[K]{key: wk, end: end, seq: st.seq})
		}
		st.tuples = append(st.tuples, v)
	}
	return a.flushReady(emitFn)
}

// flushReady closes every window whose end (plus slack) has been passed by
// the observed event time.
func (a *aggregateOp[In, K, Out]) flushReady(emitFn Emit[Out]) error {
	for a.pending.Len() > 0 {
		top := a.pending[0]
		if top.end+a.spec.Slack > a.maxTS {
			return nil
		}
		heap.Pop(&a.pending)
		if err := a.closeWindow(top.key, emitFn); err != nil {
			return err
		}
	}
	return nil
}

// flushAll closes every remaining window at end-of-stream, in (end, seq)
// order.
func (a *aggregateOp[In, K, Out]) flushAll(emitFn Emit[Out]) error {
	for a.pending.Len() > 0 {
		top := heap.Pop(&a.pending).(winRef[K])
		if err := a.closeWindow(top.key, emitFn); err != nil {
			return err
		}
	}
	return nil
}

func (a *aggregateOp[In, K, Out]) closeWindow(wk winKey[K], emitFn Emit[Out]) error {
	st, ok := a.open[wk]
	if !ok || st.closed {
		return nil
	}
	st.closed = true
	delete(a.open, wk)
	w := Window[K, In]{Key: wk.key, Start: wk.start, End: st.end, Tuples: st.tuples}
	return a.agg(w, emitFn)
}

// winRef is a heap entry pointing at an open window.
type winRef[K comparable] struct {
	key winKey[K]
	end int64
	seq int64
}

type winHeap[K comparable] []winRef[K]

func (h winHeap[K]) Len() int { return len(h) }
func (h winHeap[K]) Less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	return h[i].seq < h[j].seq
}
func (h winHeap[K]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *winHeap[K]) Push(x any)   { *h = append(*h, x.(winRef[K])) }
func (h *winHeap[K]) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// floorDiv returns floor(a/b) for positive b, correct for negative a (Go's
// integer division truncates toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
