package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"strata/internal/kvstore"
	"strata/internal/stream"
	"strata/internal/telemetry"
)

// Checkpoint storage layout, all under the pipeline's shared store:
//
//	ckpt/<pipeline>/latest                      8-byte BE epoch number
//	ckpt/<pipeline>/<epoch:%016x>/meta          gob ckptMeta, with the plan
//	ckpt/<pipeline>/<epoch:%016x>/op/<name>     operator state blob
//	ckpt/<pipeline>/<epoch:%016x>/src/<name>    8-byte BE resume offset
//	ckpt/<pipeline>/<epoch:%016x>/sink/<name>   8-byte BE sink sequence
//
// Every op/ blob is the Snapshot of a stream.Snapshotter the engine found
// on the operator of that name: Aggregate panes (correlateEvents' layer
// windows among them) and Join buffers. An epoch holding any other record
// is damaged and does not load. The meta record lists the operators of the
// query that wrote the epoch (stream.QuerySnapshot.Plan), and an epoch
// restores only into a build of the same plan: at another parallelism, a
// replica's blob would land on a replica that no longer receives its
// specimens. An epoch written before plans were recorded has none, and
// fails to restore for the same reason.
//
// Every key of one epoch plus the latest pointer is written in ONE kvstore
// batch (a single WAL record), so an epoch is visible if and only if it is
// complete: a crash anywhere during checkpointing leaves the store at the
// previous epoch. Retention deletes whole epochs with DeletePrefix, also
// atomically.
//
// Recovery semantics (see DESIGN.md §10): restoring from epoch E rewinds
// every positioned source to its recorded offset and every stateful
// operator to its recorded state, so tuples emitted after E are reprocessed
// — at-least-once through the pipeline's operators. Deliver sinks see those
// replayed tuples again; DeliverDurable sinks suppress the ones whose
// effects already reached the store, making externally visible effects
// effectively-once (for deterministic pipelines).

// ErrCheckpointRestore wraps failures to apply a loaded checkpoint to a
// rebuilt pipeline. The supervisor treats it as a failed run charged
// against the restart budget — not as a terminal build error, and not as a
// reason to retry forever.
var ErrCheckpointRestore = errors.New("strata: checkpoint restore failed")

// checkpointCrash is a test seam: when non-nil it is consulted at each
// stage of a checkpoint ("begin", "pre-apply"); a non-nil return aborts the
// checkpoint there, simulating a crash at that point. Never set outside
// tests.
var checkpointCrash func(stage string) error

// ckptStats is the per-pipeline checkpoint telemetry, shared by every
// incarnation of a checkpointed pipeline (restores survive restarts).
type ckptStats struct {
	attempts     atomic.Uint64
	failures     atomic.Uint64
	restores     atomic.Uint64
	lastEpoch    atomic.Uint64
	lastUnixNano atomic.Int64
	duration     *telemetry.Histogram
	size         *telemetry.Histogram
}

func newCkptStats() *ckptStats {
	return &ckptStats{
		duration: telemetry.NewDurationHistogram(),
		size:     telemetry.NewSizeHistogram(),
	}
}

// ckptMeta describes one checkpoint epoch.
type ckptMeta struct {
	Epoch   uint64
	TakenAt int64 // unix nanos
	Ops     int
	Sources int
	Sinks   int
	// Plan is the operator names of the query that wrote the epoch.
	Plan []string
}

func ckptPipelinePrefix(pipeline string) []byte {
	return []byte("ckpt/" + pipeline + "/")
}

func ckptLatestKey(pipeline string) []byte {
	return []byte("ckpt/" + pipeline + "/latest")
}

func ckptEpochPrefix(pipeline string, epoch uint64) []byte {
	return fmt.Appendf(nil, "ckpt/%s/%016x/", pipeline, epoch)
}

func be64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// ckptEpoch is one consistent cut: the engine snapshot plus the durable
// sinks' sequence cursors, captured in the same quiesced window. epoch is
// its number once written or loaded.
type ckptEpoch struct {
	epoch uint64
	snap  *stream.QuerySnapshot
	sinks map[string]uint64
}

// enableCheckpointing marks the framework as checkpoint-managed and hands
// it the restored epoch (nil on a fresh start). The manager calls it before
// the user build function runs, so sources built during build see their
// restored offsets.
func (fw *Framework) enableCheckpointing(restored *ckptEpoch) {
	fw.ckptEnabled = true
	fw.restored = restored
	if restored != nil {
		fw.lastEpoch = restored.epoch
	}
	fw.query.EnableSnapshots()
}

// restoredPos returns the offset a positioned source should resume from: 0
// on a fresh start, the checkpointed resume position otherwise.
func (fw *Framework) restoredPos(source string) uint64 {
	if fw.restored == nil {
		return 0
	}
	return fw.restored.snap.Positions[source]
}

// finishRestore applies the loaded epoch's operator blobs to the freshly
// built query. Source offsets were already consumed at build time
// (restoredPos) and sink sequences at DeliverDurable registration. Any
// failure is wrapped in ErrCheckpointRestore.
func (fw *Framework) finishRestore() error {
	if fw.restored == nil {
		return nil
	}
	if err := fw.query.RestoreCheckpoint(fw.restored.snap); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointRestore, err)
	}
	return nil
}

// captureCheckpoint quiesces the query and captures engine state and sink
// sequence cursors in one consistent cut. The sink reads run inside the
// quiesced window, where every operator goroutine is parked, so the plain
// fields they read are stable.
func (fw *Framework) captureCheckpoint(ctx context.Context) (*ckptEpoch, error) {
	cut := &ckptEpoch{sinks: make(map[string]uint64)}
	snap, err := fw.query.Checkpoint(ctx, func(*stream.QuerySnapshot) error {
		fw.mu.Lock()
		defer fw.mu.Unlock()
		for name, s := range fw.durableSinks {
			cut.sinks[name] = s.seq
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cut.snap = snap
	return cut, nil
}

// writeCheckpoint persists cut as epoch cut.epoch atomically and returns
// the total blob size written.
func writeCheckpoint(store *kvstore.DB, pipeline string, cut *ckptEpoch) (int, error) {
	prefix := ckptEpochPrefix(pipeline, cut.epoch)
	key := func(parts ...string) []byte {
		k := append([]byte(nil), prefix...)
		for _, p := range parts {
			k = append(k, p...)
		}
		return k
	}
	var b kvstore.Batch
	size := 0
	for name, blob := range cut.snap.Ops {
		b.Put(key("op/", name), blob)
		size += len(blob)
	}
	for name, pos := range cut.snap.Positions {
		b.Put(key("src/", name), be64(pos))
		size += 8
	}
	for name, seq := range cut.sinks {
		b.Put(key("sink/", name), be64(seq))
		size += 8
	}
	meta, err := gobEncodeMeta(ckptMeta{
		Epoch:   cut.epoch,
		TakenAt: time.Now().UnixNano(),
		Ops:     len(cut.snap.Ops),
		Sources: len(cut.snap.Positions),
		Sinks:   len(cut.sinks),
		Plan:    cut.snap.Plan,
	})
	if err != nil {
		return 0, err
	}
	b.Put(key("meta"), meta)
	b.Put(ckptLatestKey(pipeline), be64(cut.epoch))
	if err := store.Apply(&b); err != nil {
		return 0, err
	}
	return size, nil
}

// listEpochs returns the epochs with a meta record, ascending.
func listEpochs(store *kvstore.DB, pipeline string) ([]uint64, error) {
	prefix := ckptPipelinePrefix(pipeline)
	var epochs []uint64
	err := store.ScanPrefix(prefix, func(k, _ []byte) bool {
		rest := string(k[len(prefix):])
		if len(rest) == 16+len("/meta") && rest[16:] == "/meta" {
			if e, err := strconv.ParseUint(rest[:16], 16, 64); err == nil {
				epochs = append(epochs, e)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// pruneEpochs deletes every epoch below keepFrom.
func pruneEpochs(store *kvstore.DB, pipeline string, keepFrom uint64) error {
	epochs, err := listEpochs(store, pipeline)
	if err != nil {
		return err
	}
	for _, e := range epochs {
		if e >= keepFrom {
			break
		}
		if _, err := store.DeletePrefix(ckptEpochPrefix(pipeline, e)); err != nil {
			return err
		}
	}
	return nil
}

// loadCheckpoint returns the newest complete epoch for pipeline, or nil when
// none exists. It prefers the latest pointer but falls back to older epochs
// when the pointed-to epoch is missing its meta record (defense against a
// store that predates atomic epochs). An epoch whose meta record does not
// decode, names another epoch, or counts other records than the epoch
// holds, or that holds a record of no known kind, is damaged: loading it
// fails rather than restoring part of it.
func loadCheckpoint(store *kvstore.DB, pipeline string) (*ckptEpoch, error) {
	epochs, err := listEpochs(store, pipeline)
	if err != nil {
		return nil, err
	}
	if len(epochs) == 0 {
		return nil, nil
	}
	// Never restore past the latest pointer: epochs above it were not fully
	// committed (cannot happen with batched writes, but cheap to enforce).
	if lb, err := store.Get(ckptLatestKey(pipeline)); err == nil && len(lb) == 8 {
		latest := binary.BigEndian.Uint64(lb)
		for len(epochs) > 0 && epochs[len(epochs)-1] > latest {
			epochs = epochs[:len(epochs)-1]
		}
	} else if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
		return nil, err
	}
	if len(epochs) == 0 {
		return nil, nil
	}
	epoch := epochs[len(epochs)-1]
	rc := &ckptEpoch{
		epoch: epoch,
		snap: &stream.QuerySnapshot{
			Ops:       make(map[string][]byte),
			Positions: make(map[string]uint64),
		},
		sinks: make(map[string]uint64),
	}
	var meta ckptMeta
	var metaErr error
	var unknown string
	prefix := ckptEpochPrefix(pipeline, epoch)
	err = store.ScanPrefix(prefix, func(k, v []byte) bool {
		rest := string(k[len(prefix):])
		kind, name, _ := strings.Cut(rest, "/")
		switch {
		case rest == "meta":
			metaErr = gob.NewDecoder(bytes.NewReader(v)).Decode(&meta)
		case kind == "op" && name != "":
			rc.snap.Ops[name] = append([]byte(nil), v...)
		case kind == "src" && name != "":
			if len(v) == 8 {
				rc.snap.Positions[name] = binary.BigEndian.Uint64(v)
			}
		case kind == "sink" && name != "":
			if len(v) == 8 {
				rc.sinks[name] = binary.BigEndian.Uint64(v)
			}
		default:
			unknown = rest
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if unknown != "" {
		return nil, fmt.Errorf("epoch %x: unknown record %q", epoch, unknown)
	}
	if metaErr != nil {
		return nil, fmt.Errorf("epoch %x: meta: %w", epoch, metaErr)
	}
	if meta.Epoch != epoch || meta.Ops != len(rc.snap.Ops) || meta.Sources != len(rc.snap.Positions) ||
		meta.Sinks != len(rc.sinks) {
		return nil, fmt.Errorf("epoch %x: meta %+v does not describe its %d ops, %d sources and %d sinks",
			epoch, meta, len(rc.snap.Ops), len(rc.snap.Positions), len(rc.sinks))
	}
	rc.snap.Plan = meta.Plan
	return rc, nil
}

func gobEncodeMeta(m ckptMeta) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// durableSink is the cursor state of one DeliverDurable sink. seq and hw
// are written only by the sink goroutine and read by the checkpoint
// coordinator inside the quiesced window (where the sink is parked), so
// plain fields suffice.
type durableSink struct {
	seq uint64 // tuples seen since stream start (deterministic under replay)
	hw  uint64 // highest seq whose effects are durably applied

	// expired counts tuples whose deadline had passed at the sink, so their
	// effects were suppressed instead of committed late. Atomic because the
	// metrics collector reads it while the sink runs. Deliberately NOT part
	// of the durable cursor: a suppressed tuple advances neither seq-vs-hw
	// accounting (its seq is consumed but no effects commit), and on replay
	// the deadline is still in the past, so suppression is deterministic.
	expired atomic.Int64
}
