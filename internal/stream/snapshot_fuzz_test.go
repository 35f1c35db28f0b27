package stream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// blobVariants returns blob with the damaged shapes a checkpoint record can
// take: empty, truncated at several points, and with single bits flipped.
func blobVariants(blob []byte) [][]byte {
	out := [][]byte{blob, nil}
	for _, n := range []int{1, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		if n > 0 && n < len(blob) {
			out = append(out, blob[:n])
		}
	}
	for _, i := range []int{0, 3, len(blob) / 2, len(blob) - 2} {
		if i >= 0 && i < len(blob) {
			b := slices.Clone(blob)
			b[i] ^= 0x10
			out = append(out, b)
		}
	}
	return out
}

// snapshotterOf returns the state of the operator named name of q.
func snapshotterOf(tb testing.TB, q *Query, name string) Snapshotter {
	tb.Helper()
	for _, op := range q.ops {
		if op.opName() == name {
			return stateOf(op)
		}
	}
	tb.Fatalf("no operator %q", name)
	return nil
}

// checkRestore restores blob into operator op of a query freshly built by
// build. A failed restore must leave the operator's state as it was; a
// successful one must snapshot again into a blob that restores.
func checkRestore(t *testing.T, build func(q *Query), op string, blob []byte) {
	q := NewQuery("fuzz")
	build(q)
	s := snapshotterOf(t, q, op)
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(blob); err != nil {
		if after, serr := s.Snapshot(); serr != nil || !bytes.Equal(before, after) {
			t.Fatalf("Restore failed (%v) but changed the state", err)
		}
		return
	}
	again, err := s.Snapshot()
	if err != nil {
		t.Fatalf("restored state does not snapshot: %v", err)
	}
	fresh := NewQuery("fuzz")
	build(fresh)
	if err := snapshotterOf(t, fresh, op).Restore(again); err != nil {
		t.Fatalf("snapshot of restored state does not restore: %v", err)
	}
}

func aggregateFuzzBuild(q *Query) {
	sumBuild(q, AddPositionedSource(q, "src", 0, feedFrom(nil, 0)))
}

func joinFuzzBuild(q *Query) {
	joinBuild(q, AddPositionedSource(q, "left", 0, feedFrom(nil, 0)), AddPositionedSource(q, "right", 0, feedFrom(nil, 0)))
}

// FuzzAggregateRestore: arbitrary bytes either fail to restore an aggregate,
// leaving it as it was, or restore a state that snapshots and restores
// again. The seeds are a real snapshot with open panes and its damaged
// copies.
func FuzzAggregateRestore(f *testing.F) {
	qa := NewQuery("seed")
	qa.EnableSnapshots()
	fed := make(chan struct{})
	sumBuild(qa, AddPositionedSource(qa, "src", 0, feedFirst(ckptItems(40), 21, fed)))
	for _, b := range blobVariants(checkpointParked(f, qa, fed).Ops["sum"]) {
		f.Add(b)
	}
	// Blobs the operator could not have written: a key twice, a pane twice,
	// panes out of order, a key closed below pane 0.
	pane := func(p int) paneBuf[keyed] { return paneBuf[keyed]{Pane: p, Tuples: []keyed{{ts: 1, key: "a", val: 1}}} }
	for _, keys := range [][]*keyPanes[string, keyed]{
		{{Key: "a"}, {Key: "a", LastClosed: 1}},
		{{Key: "a", LastClosed: -1, Panes: []paneBuf[keyed]{pane(-5)}}},
		{{Key: "a", Panes: []paneBuf[keyed]{pane(2), pane(2)}}},
		{{Key: "a", Panes: []paneBuf[keyed]{pane(3), pane(2)}}},
	} {
		b, err := gobEncode(aggSnap[string, keyed]{Keys: keys})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkRestore(t, aggregateFuzzBuild, "sum", blob)
	})
}

// FuzzJoinRestore is FuzzAggregateRestore for the two join buffers.
func FuzzJoinRestore(f *testing.F) {
	var l, r []keyed
	for i := 0; i < 24; i++ {
		l = append(l, keyed{ts: int64(i * 2), key: fmt.Sprintf("k%d", i%3), val: i})
		r = append(r, keyed{ts: int64(i*2 + 1), key: fmt.Sprintf("k%d", i%3), val: 100 + i})
	}
	qa := NewQuery("seed")
	qa.EnableSnapshots()
	fedL, fedR := make(chan struct{}), make(chan struct{})
	joinBuild(qa, AddPositionedSource(qa, "left", 0, feedFirst(l, 9, fedL)), AddPositionedSource(qa, "right", 0, feedFirst(r, 14, fedR)))
	for _, b := range blobVariants(checkpointParked(f, qa, fedL, fedR).Ops["join"]) {
		f.Add(b)
	}
	// One key buffered twice on a side.
	dup, err := gobEncode(joinSnap[keyed, keyed, string]{L: []joinSideSnap[string, keyed]{{Key: "k0"}, {Key: "k0"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dup)
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkRestore(t, joinFuzzBuild, "join", blob)
	})
}
