package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"strata/internal/kvstore"
	"strata/internal/stream"
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

// correlateFixture is a correlate state with two specimens' events buffered
// across a closed and an open layer, the shape a live checkpoint captures.
func correlateFixture(tb testing.TB) *correlateState {
	cs := newCorrelateState(3, func(w CorrelateWindow, emit func(EventTuple) error) error {
		return emit(EventTuple{KV: map[string]any{"n": int64(len(w.Events))}})
	})
	drop := func(EventTuple) error { return nil }
	for layer := 1; layer <= 3; layer++ {
		for _, spec := range []string{"s1", "s2"} {
			ev := EventTuple{TS: time.UnixMicro(int64(layer)), Job: "j", Layer: layer, Specimen: spec, KV: map[string]any{"hot": layer%2 == 0}}
			if err := cs.ingest(ev, drop); err != nil {
				tb.Fatal(err)
			}
			if layer < 3 {
				if err := cs.ingest(layerMarker(ev), drop); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return cs
}

// layerMarker is the end-of-layer marker the framework sends after ev's
// layer.
func layerMarker(ev EventTuple) EventTuple {
	return EventTuple{TS: ev.TS, Job: ev.Job, Layer: ev.Layer, Specimen: ev.Specimen, Portion: markerPortion}
}

func gobBlob(tb testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCorrelateRestore: arbitrary bytes either fail to restore, leaving the
// buffers as they were, or restore buffers that close every open window and
// snapshot again.
func FuzzCorrelateRestore(f *testing.F) {
	blob, err := correlateFixture(f).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range blobVariants(blob) {
		f.Add(b)
	}
	ev := []EventTuple{{Job: "j", Specimen: "s", Layer: math.MaxInt}}
	// A window closing at the largest layer.
	f.Add(gobBlob(f, []correlateSnapBuf{{Job: "j", Specimen: "s", Layers: map[int][]EventTuple{math.MaxInt: ev}}}))
	// One specimen twice.
	f.Add(gobBlob(f, []correlateSnapBuf{{Job: "j", Specimen: "s"}, {Job: "j", Specimen: "s"}}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		cs := correlateFixture(t)
		before := cs.perKey
		if err := cs.Restore(blob); err != nil {
			if reflect.ValueOf(cs.perKey).UnsafePointer() != reflect.ValueOf(before).UnsafePointer() {
				t.Fatalf("restore failed (%v) but replaced the buffers", err)
			}
			return
		}
		if _, err := cs.Snapshot(); err != nil {
			t.Fatalf("restored buffers do not snapshot: %v", err)
		}
		if err := cs.finish(func(EventTuple) error { return nil }); err != nil {
			t.Fatalf("restored buffers do not close: %v", err)
		}
	})
}

// FuzzLoadCheckpoint: whatever bytes an epoch's meta, operator and position
// records hold, loading either fails or returns exactly the epoch the meta
// record describes.
func FuzzLoadCheckpoint(f *testing.F) {
	store, err := kvstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	capture := &ckptEpoch{
		epoch: 3,
		snap: &stream.QuerySnapshot{
			Ops:       map[string][]byte{"agg": []byte("state")},
			Positions: map[string]uint64{"src": 42},
		},
		sinks: map[string]uint64{"out": 7},
	}
	if _, err := writeCheckpoint(store, "p", capture); err != nil {
		f.Fatal(err)
	}
	meta, err := store.Get(append(ckptEpochPrefix("p", 3), "meta"...))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := store.DeletePrefix([]byte("ckpt/")); err != nil {
		f.Fatal(err)
	}
	for _, m := range blobVariants(meta) {
		f.Add(m, []byte("state"), be64(42), be64(3))
	}
	f.Add(meta, []byte{}, []byte{1, 2, 3}, be64(3)) // a torn source offset
	f.Add(meta, []byte("state"), be64(42), be64(2)) // latest points below the epoch
	f.Add(meta, []byte("state"), be64(42), []byte{})
	f.Fuzz(func(t *testing.T, meta, op, pos, latest []byte) {
		var b kvstore.Batch
		prefix := ckptEpochPrefix("p", 3)
		b.Put(append(slices.Clone(prefix), "meta"...), meta)
		b.Put(append(slices.Clone(prefix), "op/agg"...), op)
		b.Put(append(slices.Clone(prefix), "src/src"...), pos)
		b.Put(ckptLatestKey("p"), latest)
		if err := store.Apply(&b); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if _, err := store.DeletePrefix([]byte("ckpt/")); err != nil {
				t.Fatal(err)
			}
		}()
		rc, err := loadCheckpoint(store, "p")
		if err != nil || rc == nil {
			return
		}
		var m ckptMeta
		if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&m); err != nil {
			t.Fatalf("loaded epoch %d whose meta does not decode: %v", rc.epoch, err)
		}
		if rc.epoch != 3 || m.Epoch != 3 || len(rc.snap.Ops) != m.Ops || len(rc.snap.Positions) != m.Sources {
			t.Fatalf("loaded epoch %d (%d ops, %d sources) under meta %+v", rc.epoch, len(rc.snap.Ops), len(rc.snap.Positions), m)
		}
		if !bytes.Equal(rc.snap.Ops["agg"], op) {
			t.Fatalf("op blob = %q, stored %q", rc.snap.Ops["agg"], op)
		}
	})
}

// TestLoadCheckpointRejectsUnknownRecord: an epoch whose meta describes its
// records but that also holds a record of no known kind is damaged. That
// covers the custom/ records of epochs written before correlate state
// became an operator blob: restoring such an epoch would start the
// correlate windows empty.
func TestLoadCheckpointRejectsUnknownRecord(t *testing.T) {
	store, err := kvstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cut := &ckptEpoch{
		epoch: 1,
		snap: &stream.QuerySnapshot{
			Ops:       map[string][]byte{"agg": []byte("state")},
			Positions: map[string]uint64{"src": 42},
		},
		sinks: map[string]uint64{"out": 7},
	}
	for _, record := range []string{"", "bogus/x", "custom/cor", "op/"} {
		if _, err := writeCheckpoint(store, "p", cut); err != nil {
			t.Fatal(err)
		}
		if record != "" {
			if err := store.Put(append(ckptEpochPrefix("p", 1), record...), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		rc, err := loadCheckpoint(store, "p")
		if record == "" {
			if err != nil || rc == nil || rc.epoch != 1 {
				t.Fatalf("intact epoch: loaded %v, err %v", rc, err)
			}
		} else if err == nil {
			t.Fatalf("epoch with a %q record loaded", record)
		}
		if _, err := store.DeletePrefix([]byte("ckpt/")); err != nil {
			t.Fatal(err)
		}
	}
}
