package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"strata/internal/seglog"
	"strata/internal/telemetry"
)

// The write-ahead log is a seglog.Log (framing, group commit and crash
// recovery live there — DESIGN.md, "Durable log"). Record payload:
//
//	kind     byte (walPut | walDelete | walBatch)
//	keyLen   uvarint
//	key      bytes
//	value    bytes (remainder; absent for walDelete)
const (
	walPut    byte = 1
	walDelete byte = 2
	// walBatch wraps an atomic group of operations (see Batch.marshal);
	// its key is empty and its value is the encoded batch body.
	walBatch byte = 3
)

// wal encodes store operations onto the log. append only buffers a record
// and returns the log offset past it; log.Commit makes that offset durable,
// and must be called without the DB lock so concurrent writers share one
// fsync.
type wal struct {
	log *seglog.Log
	// scratch is the reusable payload-assembly buffer. Appends are
	// serialized by the owning DB's lock, so one buffer serves them all
	// without a per-record allocation.
	scratch []byte
	// appendHist is shared with the owning DB (nil when the WAL is opened
	// outside a DB, e.g. in tests).
	appendHist *telemetry.Histogram
}

// openWAL recovers the log at path, feeding every intact record into apply
// in log order, and returns it ready for appends. A torn final record (a
// crash during the last write) is truncated; any other integrity violation
// returns ErrCorrupt.
func openWAL(path string, syncWrites bool, stats *seglog.Stats, apply func(kind byte, key, value []byte)) (*wal, error) {
	log, err := seglog.Open(path, syncWrites, stats, func(_ int64, payload []byte) error {
		return decodeRecord(payload, apply)
	})
	if errors.Is(err, seglog.ErrCorrupt) {
		err = fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	return &wal{log: log}, nil
}

// append assembles the record in the reusable scratch and hands it to the
// log in one call. The caller serializes appends (the DB holds its lock).
func (w *wal) append(kind byte, key, value []byte) (int64, error) {
	start := time.Now()
	b := append(w.scratch[:0], kind)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = append(b, value...)
	w.scratch = b
	off, err := w.log.Append(b)
	if err != nil {
		return 0, fmt.Errorf("kvstore: wal append: %w", err)
	}
	if w.appendHist != nil {
		w.appendHist.ObserveDuration(time.Since(start))
	}
	return off, nil
}

// decodeRecord feeds the operations of one record payload into apply.
func decodeRecord(payload []byte, apply func(kind byte, key, value []byte)) error {
	if len(payload) < 1 {
		return fmt.Errorf("%w: empty wal payload", ErrCorrupt)
	}
	kind := payload[0]
	keyLen, n := binary.Uvarint(payload[1:])
	if n <= 0 || keyLen > uint64(len(payload)-1-n) {
		return fmt.Errorf("%w: bad wal key length", ErrCorrupt)
	}
	key := payload[1+n : 1+n+int(keyLen)]
	value := payload[1+n+int(keyLen):]
	if kind == walBatch {
		return decodeBatch(value, apply)
	}
	apply(kind, key, value)
	return nil
}
