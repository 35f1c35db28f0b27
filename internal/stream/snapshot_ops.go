package stream

import "fmt"

// This file implements the Snapshotter contract for the built-in stateful
// operators. Each operator serializes into gob structs with exported
// fields, and Restore rejects a blob the operator could not have written,
// leaving the operator as it was.
//
// Snapshot runs only at a quiescent point (see quiesce.go) and Restore only
// before Run, so neither needs locking.

// --- Aggregate -------------------------------------------------------------

// aggSnap is an Aggregate's blob: its keys in first-seen order, each with
// its last closed pane and its panes. The list is wrapped in a struct so
// that a blob whose top level is a bare list fails to decode instead of
// restoring empty windows.
type aggSnap[K comparable, In any] struct {
	Keys []*keyPanes[K, In]
}

func (a *aggregateOp[In, K, Out]) Snapshot() ([]byte, error) {
	return gobEncode(aggSnap[K, In]{Keys: a.keys})
}

// Restore rejects a blob that holds a key twice, closes a key below pane 0,
// or lists a key's panes out of strictly ascending order (a pane twice
// among them).
func (a *aggregateOp[In, K, Out]) Restore(b []byte) error {
	var s aggSnap[K, In]
	if err := gobDecode(b, &s); err != nil {
		return err
	}
	index := make(map[K]*keyPanes[K, In], len(s.Keys))
	for _, ks := range s.Keys {
		if _, dup := index[ks.Key]; dup || ks.LastClosed < 0 {
			return fmt.Errorf("aggregate %q: snapshot holds key %v twice or closed at pane %d", a.name, ks.Key, ks.LastClosed)
		}
		for i := 1; i < len(ks.Panes); i++ {
			if ks.Panes[i].Pane <= ks.Panes[i-1].Pane {
				return fmt.Errorf("aggregate %q: snapshot panes of key %v out of order at pane %d", a.name, ks.Key, ks.Panes[i].Pane)
			}
		}
		index[ks.Key] = ks
	}
	a.keys, a.index, a.window = s.Keys, index, nil
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
