package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

func TestBatchApply(t *testing.T) {
	db := openTestDB(t)
	mustPut(t, db, "pre", "existing")

	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("pre"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := db.Apply(&b); err != nil {
		t.Fatalf("Apply error = %v", err)
	}
	mustGet(t, db, "a", "1")
	mustGet(t, db, "b", "2")
	mustMiss(t, db, "pre")

	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	if err := db.Apply(&b); err != nil {
		t.Fatalf("Apply(empty) error = %v", err)
	}
	if err := db.Apply(nil); err != nil {
		t.Fatalf("Apply(nil) error = %v", err)
	}
}

func TestBatchEmptyKeyRejected(t *testing.T) {
	db := openTestDB(t)
	var b Batch
	b.Put(nil, []byte("v"))
	if err := db.Apply(&b); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Apply error = %v, want ErrEmptyKey", err)
	}
}

func TestBatchCopiesInputs(t *testing.T) {
	db := openTestDB(t)
	key := []byte("k")
	val := []byte("v")
	var b Batch
	b.Put(key, val)
	key[0] = 'x'
	val[0] = 'y'
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	mustGet(t, db, "k", "v")
}

func TestBatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	b.Delete([]byte("k000"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	// Crash-style reopen: replay must restore the full batch atomically.
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mustMiss(t, db2, "k000")
	for i := 1; i < 50; i++ {
		mustGet(t, db2, fmt.Sprintf("k%03d", i), "v")
	}
}

func TestBatchTriggersFlush(t *testing.T) {
	db := openTestDB(t, withMemtableBytes(256))
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("some value payload here"))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Flushes == 0 {
		t.Fatal("large batch did not trigger a flush")
	}
	mustGet(t, db, "key-0099", "some value payload here")
}

func TestDecodeBatchCorruption(t *testing.T) {
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	good := b.marshal()
	for i, data := range [][]byte{{}, good[:2], good[:len(good)-1]} {
		err := decodeBatch(data, func(byte, []byte, []byte) {})
		if err == nil {
			t.Errorf("case %d: decodeBatch accepted corrupt input", i)
		}
	}
}

// TestDecodeBatchHugeLength: a key or value length of 2^63 or more must be
// rejected as corrupt, not wrap negative past the bounds check.
func TestDecodeBatchHugeLength(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	for name, body := range map[string][]byte{
		"key":   append([]byte{1, walPut}, append(huge, 'k')...),
		"value": append([]byte{1, walPut, 1, 'k'}, append(huge, 'v')...),
	} {
		err := decodeBatch(body, func(byte, []byte, []byte) {})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s length 1<<63: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// walPayload encodes one WAL record payload, as wal.append does.
func walPayload(kind byte, key, value []byte) []byte {
	b := binary.AppendUvarint([]byte{kind}, uint64(len(key)))
	return append(append(b, key...), value...)
}

// FuzzDecodeWALRecord: a record payload either fails with ErrCorrupt or
// decodes to operations that, re-encoded as a batch record, decode to the
// same operations. No payload panics.
func FuzzDecodeWALRecord(f *testing.F) {
	var b Batch
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.Put([]byte("k3"), nil)
	f.Add(walPayload(walBatch, nil, b.marshal()))
	f.Add(walPayload(walPut, []byte("key"), []byte("value")))
	f.Add(walPayload(walDelete, []byte("key"), nil))
	f.Add([]byte{walBatch, 0, 1, walPut, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{walBatch, 0, 1, walPut, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got Batch
		collect := func(into *Batch) func(byte, []byte, []byte) {
			return func(kind byte, key, value []byte) {
				into.ops = append(into.ops, batchOp{kind: kind, key: key, value: value})
			}
		}
		if err := decodeRecord(payload, collect(&got)); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		var again Batch
		if err := decodeRecord(walPayload(walBatch, nil, got.marshal()), collect(&again)); err != nil {
			t.Fatalf("re-encoded operations do not decode: %v", err)
		}
		if fmt.Sprint(again.ops) != fmt.Sprint(got.ops) {
			t.Fatalf("re-encoded operations decode to %v, want %v", again.ops, got.ops)
		}
	})
}
