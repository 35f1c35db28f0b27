package stream

import (
	"fmt"
	"slices"
)

// PaneFunc assigns a tuple to its pane and reports whether the tuple is
// punctuation that closes the pane rather than data that belongs in it.
// Panes are numbered from 1.
type PaneFunc[In any] func(In) (pane int, closes bool)

// Window is the unit handed to an AggregateFunc: for one key, every tuple of
// the panes (Pane-l, Pane] in pane order, each pane's tuples in arrival
// order. Close is the punctuation that closed Pane, or the zero In when the
// end of the stream closed it. Tuples is the operator's reused buffer and
// is valid only during the call: an AggregateFunc copies what it keeps.
type Window[K comparable, In any] struct {
	Key    K
	Pane   int
	Close  In
	Tuples []In
}

// AggregateFunc turns one closed window into zero or more output tuples.
type AggregateFunc[K comparable, In, Out any] func(w Window[K, In], emit Emit[Out]) error

// KeyFunc extracts the group-by key of a tuple.
type KeyFunc[In any, K comparable] func(In) K

// Aggregate registers a keyed count window over panes, the paper's
// Aggregate: per key, each tuple is stored once in its pane, and the
// punctuation closing pane p runs agg over the last l panes (p-l, p]. The
// panes no later window reaches are then evicted. Punctuation at or below
// the key's last closed pane is a duplicate and is ignored; a tuple for a
// pane already evicted is kept only until the key's next close. At end of
// stream, each key whose highest buffered pane is past its last closed one
// closes that pane, keys in first-seen order.
func Aggregate[In any, K comparable, Out any](
	q *Query,
	name string,
	in *Stream[In],
	l int,
	key KeyFunc[In, K],
	pane PaneFunc[In],
	agg AggregateFunc[K, In, Out],
	opts ...OpOption,
) *Stream[Out] {
	if key == nil || pane == nil || agg == nil {
		q.recordErr(ErrNilUDF)
		return Process[In, Out](q, name, in, nil, nil, nil, opts...)
	}
	if l < 1 {
		q.recordErr(fmt.Errorf("%w (l=%d)", ErrBadWindow, l))
		return Process[In, Out](q, name, in, nil, nil, nil, opts...)
	}
	a := &aggregateOp[In, K, Out]{
		name: name, l: l, key: key, pane: pane, agg: agg,
		index: make(map[K]*keyPanes[K, In]),
	}
	return Process(q, name, in, a.ingest, a.flushAll, a, opts...)
}

// paneBuf is one buffered pane.
type paneBuf[In any] struct {
	Pane   int
	Tuples []In
}

// keyPanes is one key's window state: the last pane punctuation closed and
// the buffered panes in ascending order. It and paneBuf export their fields
// because the operator's snapshot encodes them as they are.
type keyPanes[K comparable, In any] struct {
	Key        K
	LastClosed int
	Panes      []paneBuf[In]
}

// aggregateOp is the window state of one Aggregate operator: the fn, onEnd
// and state of its Process.
type aggregateOp[In any, K comparable, Out any] struct {
	name string
	l    int
	key  KeyFunc[In, K]
	pane PaneFunc[In]
	agg  AggregateFunc[K, In, Out]

	// keys lists every key seen in first-seen order, which makes the
	// end-of-stream flush and the snapshot deterministic; index finds a
	// key's entry.
	keys  []*keyPanes[K, In]
	index map[K]*keyPanes[K, In]
	// window is the buffer every Window's Tuples reuses. It is empty
	// between calls, so a snapshot leaves it out.
	window []In
}

func (a *aggregateOp[In, K, Out]) ingest(v In, emit Emit[Out]) error {
	k := a.key(v)
	ks := a.index[k]
	if ks == nil {
		ks = &keyPanes[K, In]{Key: k}
		a.index[k] = ks
		a.keys = append(a.keys, ks)
	}
	p, closes := a.pane(v)
	if !closes {
		ks.add(p, v)
		return nil
	}
	if p <= ks.LastClosed {
		return nil
	}
	return a.close(ks, p, v, emit)
}

// flushAll closes, at end of stream, each key's highest buffered pane that
// no punctuation closed.
func (a *aggregateOp[In, K, Out]) flushAll(emit Emit[Out]) error {
	var none In
	for _, ks := range a.keys {
		if n := len(ks.Panes); n > 0 && ks.Panes[n-1].Pane > ks.LastClosed {
			if err := a.close(ks, ks.Panes[n-1].Pane, none, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// close runs agg over the window that c closes at pane p, after evicting
// the panes no later window reaches.
func (a *aggregateOp[In, K, Out]) close(ks *keyPanes[K, In], p int, c In, emit Emit[Out]) error {
	ks.LastClosed = p
	// LastClosed only grows from 0, so p >= 1 and first cannot overflow.
	first := p - a.l + 1
	w := a.window[:0]
	for _, pb := range ks.Panes {
		if pb.Pane >= first && pb.Pane <= p {
			w = append(w, pb.Tuples...)
		}
	}
	ks.evict(first)
	err := a.agg(Window[K, In]{Key: ks.Key, Pane: p, Close: c, Tuples: w}, emit)
	// Drop the copies' references so evicted tuples can be collected.
	clear(w)
	a.window = w[:0]
	return err
}

// add stores v in pane p. A tuple almost always belongs to the newest pane,
// so the search runs from the end.
func (ks *keyPanes[K, In]) add(p int, v In) {
	i := len(ks.Panes)
	for i > 0 && ks.Panes[i-1].Pane > p {
		i--
	}
	if i > 0 && ks.Panes[i-1].Pane == p {
		ks.Panes[i-1].Tuples = append(ks.Panes[i-1].Tuples, v)
		return
	}
	ks.Panes = slices.Insert(ks.Panes, i, paneBuf[In]{Pane: p, Tuples: []In{v}})
}

// evict drops the panes at or below first: the next window starts above it.
func (ks *keyPanes[K, In]) evict(first int) {
	i := 0
	for i < len(ks.Panes) && ks.Panes[i].Pane <= first {
		i++
	}
	n := copy(ks.Panes, ks.Panes[i:])
	clear(ks.Panes[n:])
	ks.Panes = ks.Panes[:n]
}
