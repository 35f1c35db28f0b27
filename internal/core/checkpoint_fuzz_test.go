package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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

func gobBlob(tb testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// correlateQuery builds a query around the operator CorrelateEvents
// compiles to, named "cor": an Aggregate over layer panes with L = 3 and an
// F that counts each window's events. src feeds it; the sink records each
// result as specimen/layer:count.
func correlateQuery(src stream.SourceFunc[EventTuple]) (*stream.Query, *[]string) {
	q := stream.NewQuery("cor")
	q.EnableSnapshots()
	f := func(w CorrelateWindow, emit func(EventTuple) error) error {
		return emit(EventTuple{KV: map[string]any{"n": int64(len(w.Events))}})
	}
	cor := stream.Aggregate(q, "cor", stream.AddSource(q, "events", src), 3, specimenOf, layerPane, correlate(3, f))
	var out []string
	stream.AddSink(q, "out", cor, func(t EventTuple) error {
		out = append(out, fmt.Sprintf("%s/%d:%v", t.Specimen, t.Layer, t.KV["n"]))
		return nil
	})
	return q, &out
}

// correlatePlan is the plan of correlateQuery: its operators' names.
var correlatePlan = []string{"cor", "events", "out"}

// correlateFixture is the "cor" blob of a live checkpoint: two specimens'
// events buffered across two closed layers and an open one.
func correlateFixture(tb testing.TB) []byte {
	fed := make(chan struct{})
	q, _ := correlateQuery(func(ctx context.Context, emit stream.Emit[EventTuple]) error {
		for layer := 1; layer <= 3; layer++ {
			for _, spec := range []string{"s1", "s2"} {
				ev := EventTuple{TS: time.UnixMicro(int64(layer)), Job: "j", Layer: layer, Specimen: spec, KV: map[string]any{"hot": layer%2 == 0}}
				if err := emit(ev); err != nil {
					return err
				}
				if layer < 3 {
					if err := emit(newMarker(&ev, spec)); err != nil {
						return err
					}
				}
			}
		}
		close(fed)
		<-ctx.Done()
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- q.Run(ctx) }()
	<-fed
	snap, err := q.Checkpoint(ctx, nil)
	cancel()
	if runErr := <-done; runErr != nil && !errors.Is(runErr, context.Canceled) {
		tb.Fatal(runErr)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return snap.Ops["cor"]
}

// restoreCorrelate restores the fixture and then blob into a fresh "cor"
// query, checkpoints it and runs it to the end of its (empty) input, which
// closes every open window. It returns blob's restore error, the results of
// the closing windows and the "cor" blob of the checkpoint.
func restoreCorrelate(t *testing.T, fixture, blob []byte) (restoreErr error, out []string, again []byte) {
	started, release := make(chan struct{}), make(chan struct{})
	q, res := correlateQuery(func(ctx context.Context, _ stream.Emit[EventTuple]) error {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	if err := q.RestoreCheckpoint(&stream.QuerySnapshot{Plan: correlatePlan, Ops: map[string][]byte{"cor": fixture}}); err != nil {
		t.Fatalf("fixture does not restore: %v", err)
	}
	restoreErr = q.RestoreCheckpoint(&stream.QuerySnapshot{Plan: correlatePlan, Ops: map[string][]byte{"cor": blob}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- q.Run(ctx) }()
	<-started
	snap, err := q.Checkpoint(ctx, nil)
	close(release)
	if runErr := <-done; runErr != nil {
		t.Fatalf("restored buffers do not close (restore err %v): %v", restoreErr, runErr)
	}
	if err != nil {
		t.Fatalf("restored buffers do not snapshot (restore err %v): %v", restoreErr, err)
	}
	return restoreErr, *res, snap.Ops["cor"]
}

// correlateSnap has the gob shape of the "cor" blob (the Aggregate's keys,
// each with its last closed layer and buffered layers), for seeds the
// operator could not have written.
type correlateSnap struct {
	Keys []correlateKeySnap
}

type correlateKeySnap struct {
	Key        specimenKey
	LastClosed int
	Panes      []correlatePaneSnap
}

type correlatePaneSnap struct {
	Pane   int
	Tuples []EventTuple
}

// FuzzCorrelateRestore: arbitrary bytes either fail to restore, leaving the
// buffers as they were, or restore buffers that snapshot again into a blob
// that restores, and close every open window at the end of input.
func FuzzCorrelateRestore(f *testing.F) {
	fixture := correlateFixture(f)
	for _, b := range blobVariants(fixture) {
		f.Add(b)
	}
	ev := EventTuple{Job: "j", Specimen: "s", Layer: math.MaxInt}
	// A window closing at the largest layer.
	f.Add(gobBlob(f, correlateSnap{Keys: []correlateKeySnap{{Key: specimenKey{"j", "s"}, Panes: []correlatePaneSnap{{Pane: math.MaxInt, Tuples: []EventTuple{ev}}}}}}))
	// One specimen twice.
	f.Add(gobBlob(f, correlateSnap{Keys: []correlateKeySnap{{Key: specimenKey{"j", "s"}}, {Key: specimenKey{"j", "s"}}}}))
	// The fixture closes layer 3 of both specimens over layers 1-3.
	want := []string{"s1/3:3", "s2/3:3"}
	f.Fuzz(func(t *testing.T, blob []byte) {
		restoreErr, out, again := restoreCorrelate(t, fixture, blob)
		if restoreErr != nil {
			if !slices.Equal(out, want) {
				t.Fatalf("restore failed (%v) but the buffers closed into %v, want %v", restoreErr, out, want)
			}
			return
		}
		fresh, _ := correlateQuery(func(context.Context, stream.Emit[EventTuple]) error { return nil })
		if err := fresh.RestoreCheckpoint(&stream.QuerySnapshot{Plan: correlatePlan, Ops: map[string][]byte{"cor": again}}); err != nil {
			t.Fatalf("snapshot of restored buffers does not restore: %v", err)
		}
	})
}

// FuzzLoadCheckpoint: whatever bytes an epoch's meta, operator and position
// records hold, loading either fails or returns exactly the epoch the meta
// record describes, with the plan it records.
func FuzzLoadCheckpoint(f *testing.F) {
	store, err := kvstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	capture := &ckptEpoch{
		epoch: 3,
		snap: &stream.QuerySnapshot{
			Plan:      []string{"agg", "out", "src"},
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
		if !slices.Equal(rc.snap.Plan, m.Plan) {
			t.Fatalf("plan = %v, meta records %v", rc.snap.Plan, m.Plan)
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

// legacyCorrelateBuf is one specimen of the correlate state as checkpoints
// held it before correlateEvents compiled to the engine's Aggregate: the
// blob was a bare list of these.
type legacyCorrelateBuf struct {
	Job        string
	Specimen   string
	Layers     map[int][]EventTuple
	LastClosed int
}

// TestRestoreRejectsLegacyCorrelateBlob: gob matches struct fields by name,
// so a legacy blob must not decode into the Aggregate's key list as empty
// windows. An epoch holding one fails to load instead of dropping the
// buffered layers.
func TestRestoreRejectsLegacyCorrelateBlob(t *testing.T) {
	r := newChaosRig(t)
	r.appendLayers(t, 1, 1)
	r.checkpointAndStop(t, 1)
	ev := EventTuple{Job: "j", Specimen: DefaultSpecimen, Layer: 1, KV: map[string]any{"score": 10.0}}
	legacy := gobBlob(t, []legacyCorrelateBuf{{Job: "j", Specimen: DefaultSpecimen, Layers: map[int][]EventTuple{1: {ev}}}})
	if err := r.mgr.Store().Put(append(ckptEpochPrefix("chaos", 1), "op/cor"...), legacy); err != nil {
		t.Fatal(err)
	}
	_, err := r.mgr.Deploy("chaos", r.build, WithCheckpointInterval(time.Hour))
	if !errors.Is(err, ErrCheckpointRestore) || !strings.Contains(err.Error(), `restore operator "cor"`) {
		t.Fatalf("Deploy over a legacy correlate blob: err = %v, want ErrCheckpointRestore from operator \"cor\"", err)
	}
}

// checkpointAndStop deploys the rig's pipeline with manual checkpoints,
// waits for n results, writes epoch 1 and decommissions the pipeline.
func (r *chaosRig) checkpointAndStop(t *testing.T, n int) {
	t.Helper()
	if _, err := r.mgr.Deploy("chaos", r.build, WithCheckpointInterval(time.Hour)); err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, n)
	if err := r.mgr.CheckpointNow("chaos"); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}
	if err := r.mgr.Decommission("chaos"); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Decommission: %v", err)
	}
}

// TestCheckpointRestoresOnlyIntoItsPlan: correlate state is held per (job,
// specimen) on the replica its specimens are routed to, so an epoch written
// at parallelism 2 must not restore into a build at parallelism 4, where
// cor.0 and cor.1 would receive other specimens than the ones whose windows
// their blobs hold. Nor may an epoch that records no plan (written before
// plans were recorded) restore. The plan that wrote the epoch restores it,
// and its windows carry on across the restart.
func TestCheckpointRestoresOnlyIntoItsPlan(t *testing.T) {
	r := newChaosRig(t)
	r.par = 2
	r.appendLayers(t, 1, 10)
	r.checkpointAndStop(t, 10)

	r.par = 4
	_, err := r.mgr.Deploy("chaos", r.build, WithCheckpointInterval(time.Hour))
	if !errors.Is(err, ErrCheckpointRestore) || !strings.Contains(err.Error(), "cor.3") {
		t.Fatalf("Deploy at parallelism 4 over a parallelism-2 epoch: err = %v, want ErrCheckpointRestore naming cor.3", err)
	}

	// The same epoch with the plan dropped from its meta record, as an
	// epoch of an older version.
	r.par = 2
	metaKey := append(ckptEpochPrefix("chaos", 1), "meta"...)
	raw, err := r.mgr.Store().Get(metaKey)
	if err != nil {
		t.Fatal(err)
	}
	var meta ckptMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(meta.Plan, "cor.1") {
		t.Fatalf("epoch plan %v does not name cor.1", meta.Plan)
	}
	plan := meta.Plan
	meta.Plan = nil
	if err := r.mgr.Store().Put(metaKey, gobBlob(t, meta)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.Deploy("chaos", r.build, WithCheckpointInterval(time.Hour)); !errors.Is(err, ErrCheckpointRestore) {
		t.Fatalf("Deploy over an epoch without a plan: err = %v, want ErrCheckpointRestore", err)
	}
	meta.Plan = plan
	if err := r.mgr.Store().Put(metaKey, gobBlob(t, meta)); err != nil {
		t.Fatal(err)
	}

	p, err := r.mgr.Deploy("chaos", r.build, WithCheckpointInterval(time.Hour))
	if err != nil {
		t.Fatalf("Deploy at the epoch's own plan: %v", err)
	}
	r.appendLayers(t, 11, 14)
	r.waitResults(t, 14)
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := p.ckpt.restores.Load(); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
	r.verifyResults(t, 14)
}
