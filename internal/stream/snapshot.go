package stream

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
)

// Snapshotter is the checkpointed state of a stateful operator: a Process's
// state argument, an Aggregate's windows, a Join's buffers. Snapshot is only
// called by Query.Checkpoint while the query is quiesced (no tuple in
// flight, the operator goroutine parked at a channel receive); Restore is
// only called before Run, on a freshly built query.
// Blobs are opaque to the engine — each operator owns its own encoding.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// stateful is implemented by operators that may carry checkpointed state.
type stateful interface {
	opState() Snapshotter
}

// stateOf returns op's checkpointed state, or nil when it has none.
func stateOf(op operator) Snapshotter {
	if s, ok := op.(stateful); ok {
		return s.opState()
	}
	return nil
}

// positioned is implemented by sources that track a replay position (see
// AddPositionedSource). The coordinator records the position of every
// positioned source in the checkpoint so replay can resume there.
type positioned interface {
	resumePos() uint64
	isPositioned() bool
}

// QuerySnapshot is one consistent cut of a running query: the serialized
// state of every stateful operator plus the resume position of every
// positioned source. All tuples emitted before each recorded position have
// been fully absorbed into the recorded states; no tuple at or past a
// position has touched them.
type QuerySnapshot struct {
	// Plan lists the names of the query's operators, sorted. A snapshot
	// restores only into a query of the same plan: a blob's name says whose
	// state it is, not which keys reach that operator, and a plan with
	// another replica count routes keys to other replicas.
	Plan []string
	// Ops maps operator name to its state blob.
	Ops map[string][]byte
	// Positions maps source name to the offset replay should resume from.
	Positions map[string]uint64
}

// EnableSnapshots opts the query into the quiescence machinery that
// Checkpoint requires. It must be called before Run; the per-tuple cost when
// enabled is one atomic counter bump at each source emit and two atomic
// stores per chunk per operator. Without it, Checkpoint fails with
// ErrSnapshotsDisabled and the hot path pays only predicted branches.
func (q *Query) EnableSnapshots() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.running || q.finished {
		if q.buildErr == nil {
			q.buildErr = fmt.Errorf("EnableSnapshots: %w", ErrQueryRunning)
		}
		return
	}
	q.qz.enabled = true
}

// Checkpoint drains and pauses the query, captures a consistent snapshot of
// every stateful operator and source position, and resumes. If fn is
// non-nil it runs while the query is still quiesced — callers use it to
// capture state the engine doesn't own (e.g. sink cursors) atomically with
// the operator cut. ctx bounds how long the drain may take; on any error the
// query is resumed and keeps running.
func (q *Query) Checkpoint(ctx context.Context, fn func(*QuerySnapshot) error) (*QuerySnapshot, error) {
	qz := q.qz
	if !qz.enabled {
		return nil, ErrSnapshotsDisabled
	}
	qz.ckptMu.Lock()
	defer qz.ckptMu.Unlock()

	q.mu.Lock()
	if !q.running {
		q.mu.Unlock()
		return nil, ErrQueryNotRunning
	}
	runDone := q.runDone
	ops := make([]operator, len(q.ops))
	copy(ops, q.ops)
	q.mu.Unlock()

	resume, err := qz.pause(ctx, runDone)
	if err != nil {
		return nil, err
	}
	defer resume()

	snap := &QuerySnapshot{
		Plan:      planOf(ops),
		Ops:       make(map[string][]byte),
		Positions: make(map[string]uint64),
	}
	for _, op := range ops {
		if s := stateOf(op); s != nil {
			blob, err := s.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("snapshot operator %q: %w", op.opName(), err)
			}
			snap.Ops[op.opName()] = blob
		}
		if ps, ok := op.(positioned); ok && ps.isPositioned() {
			snap.Positions[op.opName()] = ps.resumePos()
		}
	}
	if fn != nil {
		if err := fn(snap); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// planOf returns the names of ops, sorted: the plan a snapshot records.
func planOf(ops []operator) []string {
	plan := make([]string, len(ops))
	for i, op := range ops {
		plan[i] = op.opName()
	}
	slices.Sort(plan)
	return plan
}

// RestoreCheckpoint loads a snapshot's operator state into a freshly built,
// not-yet-run query. The snapshot's plan must be the query's (see
// QuerySnapshot.Plan), and the query must contain a stateful operator for
// every blob in the snapshot; operators without a blob start fresh. Source
// positions are not applied here: builders resolve them at build time (see
// AddPositionedSource) so a checkpoint taken before the source's first emit
// still records the restored offset.
func (q *Query) RestoreCheckpoint(snap *QuerySnapshot) error {
	if snap == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.running {
		return ErrQueryRunning
	}
	if q.finished {
		return ErrQueryFinished
	}
	if plan := planOf(q.ops); !slices.Equal(snap.Plan, plan) {
		return fmt.Errorf("restore: snapshot of another plan (only in the snapshot: %v; only in the query: %v)",
			missingFrom(plan, snap.Plan), missingFrom(snap.Plan, plan))
	}
	byName := make(map[string]operator, len(q.ops))
	for _, op := range q.ops {
		byName[op.opName()] = op
	}
	var errs []error
	for name, blob := range snap.Ops {
		op, ok := byName[name]
		if !ok {
			errs = append(errs, fmt.Errorf("restore: no operator %q in query", name))
			continue
		}
		s := stateOf(op)
		if s == nil {
			errs = append(errs, fmt.Errorf("restore: operator %q is not restorable", name))
			continue
		}
		if err := s.Restore(blob); err != nil {
			errs = append(errs, fmt.Errorf("restore operator %q: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// missingFrom returns the names of from that set lacks.
func missingFrom(set, from []string) []string {
	var out []string
	for _, name := range from {
		if !slices.Contains(set, name) {
			out = append(out, name)
		}
	}
	return out
}

// gobEncode/gobDecode are the shared blob codec for the built-in operators.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
