package stream

import (
	"container/heap"
	"fmt"
	"sort"
)

// This file implements the Snapshotter contract for the built-in stateful
// operators. Each operator serializes into a gob mirror struct with exported
// fields; auxiliary structures (the aggregate's pending heap) are rebuilt
// from the primary state on restore rather than serialized, so the blob
// carries no redundancy that could drift.
//
// Snapshot runs only at a quiescent point (see quiesce.go) and Restore only
// before Run, so neither needs locking.

// --- Aggregate -------------------------------------------------------------

type aggWinSnap[K comparable, In any] struct {
	Key    K
	Start  int64
	End    int64
	Seq    int64
	Tuples []In
}

type aggSnap[K comparable, In any] struct {
	Open    []aggWinSnap[K, In]
	NextSeq int64
	MaxTS   int64
	SawAny  bool
}

func (a *aggregateOp[In, K, Out]) Snapshot() ([]byte, error) {
	s := aggSnap[K, In]{NextSeq: a.nextSeq, MaxTS: a.maxTS, SawAny: a.sawAny}
	for wk, st := range a.open {
		s.Open = append(s.Open, aggWinSnap[K, In]{
			Key: wk.key, Start: wk.start, End: st.end, Seq: st.seq, Tuples: st.tuples,
		})
	}
	// Deterministic blob bytes (map iteration order is random).
	sort.Slice(s.Open, func(i, j int) bool { return s.Open[i].Seq < s.Open[j].Seq })
	return gobEncode(s)
}

// Restore rejects a blob this operator could not have written — a window
// twice, a window not of its spec's size, a window numbered at or past
// NextSeq — and leaves the operator as it was.
func (a *aggregateOp[In, K, Out]) Restore(b []byte) error {
	var s aggSnap[K, In]
	if err := gobDecode(b, &s); err != nil {
		return err
	}
	open := make(map[winKey[K]]*winState[In], len(s.Open))
	var pending winHeap[K]
	for _, w := range s.Open {
		wk := winKey[K]{key: w.Key, start: w.Start}
		if _, dup := open[wk]; dup || w.End != w.Start+a.spec.Size || w.Seq < 0 || w.Seq >= s.NextSeq {
			return fmt.Errorf("aggregate %q: bad snapshot window [%d,%d) seq %d of %d",
				a.name, w.Start, w.End, w.Seq, s.NextSeq)
		}
		open[wk] = &winState[In]{end: w.End, seq: w.Seq, tuples: w.Tuples}
		// The pending heap mirrors the open set exactly at quiescence (a
		// window is popped from the heap at the moment it closes), so it is
		// rebuilt rather than serialized.
		heap.Push(&pending, winRef[K]{key: wk, end: w.End, seq: w.Seq})
	}
	a.open, a.pending = open, pending
	a.nextSeq = s.NextSeq
	a.maxTS = s.MaxTS
	a.sawAny = s.SawAny
	return nil
}

// --- Join ------------------------------------------------------------------

type joinSideSnap[K comparable, T any] struct {
	Key    K
	Tuples []T
}

type joinSnap[L, R any, K comparable] struct {
	L          []joinSideSnap[K, L]
	R          []joinSideSnap[K, R]
	MaxL, MaxR int64
	SawL, SawR bool
	LClosed    bool
	RClosed    bool
}

func (j *joinOp[L, R, K, Out]) Snapshot() ([]byte, error) {
	s := joinSnap[L, R, K]{
		MaxL: j.maxL, MaxR: j.maxR,
		SawL: j.sawL, SawR: j.sawR,
		LClosed: j.lClosed, RClosed: j.rClosed,
	}
	for k, buf := range j.lbuf {
		s.L = append(s.L, joinSideSnap[K, L]{Key: k, Tuples: buf})
	}
	for k, buf := range j.rbuf {
		s.R = append(s.R, joinSideSnap[K, R]{Key: k, Tuples: buf})
	}
	return gobEncode(s)
}

// Restore rejects a blob that buffers one key twice on a side and leaves
// the operator as it was.
func (j *joinOp[L, R, K, Out]) Restore(b []byte) error {
	var s joinSnap[L, R, K]
	if err := gobDecode(b, &s); err != nil {
		return err
	}
	lbuf, err := joinSide(j.name, s.L)
	if err != nil {
		return err
	}
	rbuf, err := joinSide(j.name, s.R)
	if err != nil {
		return err
	}
	j.lbuf, j.rbuf = lbuf, rbuf
	j.maxL, j.maxR = s.MaxL, s.MaxR
	j.sawL, j.sawR = s.SawL, s.SawR
	j.lClosed, j.rClosed = s.LClosed, s.RClosed
	return nil
}

// joinSide rebuilds one join buffer from its snapshot.
func joinSide[K comparable, T any](op string, sides []joinSideSnap[K, T]) (map[K][]T, error) {
	buf := make(map[K][]T, len(sides))
	for _, side := range sides {
		if _, dup := buf[side.Key]; dup {
			return nil, fmt.Errorf("join %q: snapshot buffers key %v twice", op, side.Key)
		}
		buf[side.Key] = side.Tuples
	}
	return buf, nil
}
