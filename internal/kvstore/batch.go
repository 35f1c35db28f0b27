package kvstore

import (
	"encoding/binary"
	"fmt"
)

// Batch accumulates puts and deletes to be applied atomically with
// DB.Apply: either every operation of the batch survives a crash or none
// does (the batch is a single WAL record). The zero value is ready to use.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	kind  byte
	key   []byte
	value []byte
}

// Put queues a write. Key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		kind:  walPut,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
}

// Delete queues a deletion. Key is copied.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{kind: walDelete, key: append([]byte(nil), key...)})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// marshal encodes the batch body: count, then per op
// [kind][keyLen][key][valLen][value].
func (b *Batch) marshal() []byte {
	size := binary.MaxVarintLen64
	for _, op := range b.ops {
		size += 1 + 2*binary.MaxVarintLen64 + len(op.key) + len(op.value)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(b.ops)))
	for _, op := range b.ops {
		buf = append(buf, op.kind)
		buf = binary.AppendUvarint(buf, uint64(len(op.key)))
		buf = append(buf, op.key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.value)))
		buf = append(buf, op.value...)
	}
	return buf
}

// decodeBatch feeds every operation of an encoded batch body into apply.
func decodeBatch(body []byte, apply func(kind byte, key, value []byte)) error {
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("%w: bad batch count", ErrCorrupt)
	}
	pos := n
	for i := uint64(0); i < count; i++ {
		if pos >= len(body) {
			return fmt.Errorf("%w: truncated batch op", ErrCorrupt)
		}
		kind := body[pos]
		pos++
		// Lengths compare as uint64 against the bytes left: int(len) wraps
		// negative for a length of 2^63 or more.
		klen, n := binary.Uvarint(body[pos:])
		if n <= 0 || klen > uint64(len(body)-pos-n) {
			return fmt.Errorf("%w: bad batch key", ErrCorrupt)
		}
		pos += n
		key := body[pos : pos+int(klen)]
		pos += int(klen)
		vlen, n := binary.Uvarint(body[pos:])
		if n <= 0 || vlen > uint64(len(body)-pos-n) {
			return fmt.Errorf("%w: bad batch value", ErrCorrupt)
		}
		pos += n
		value := body[pos : pos+int(vlen)]
		pos += int(vlen)
		apply(kind, key, value)
	}
	return nil
}

// Apply writes the whole batch atomically. An empty batch is a no-op. Keys
// must be non-empty.
func (db *DB) Apply(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	for _, op := range b.ops {
		if len(op.key) == 0 {
			return ErrEmptyKey
		}
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	// Same shape as Put: append + memtable under the lock, group commit
	// outside it, against the WAL the record was appended to.
	w := db.wal
	off, err := w.append(walBatch, nil, b.marshal())
	if err != nil {
		db.mu.Unlock()
		return err
	}
	for _, op := range b.ops {
		db.mem.put(op.key, op.value, op.kind == walDelete)
	}
	err = db.maybeFlushLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return w.log.Commit(off)
}
