package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"strata/internal/testseed"
)

func openTestDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatalf("Open() error = %v", err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Close() error = %v", err)
		}
	})
	return db
}

func mustPut(t *testing.T, db *DB, k, v string) {
	t.Helper()
	if err := db.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q) error = %v", k, err)
	}
}

func mustGet(t *testing.T, db *DB, k, want string) {
	t.Helper()
	got, err := db.Get([]byte(k))
	if err != nil {
		t.Fatalf("Get(%q) error = %v", k, err)
	}
	if string(got) != want {
		t.Fatalf("Get(%q) = %q, want %q", k, got, want)
	}
}

func mustMiss(t *testing.T, db *DB, k string) {
	t.Helper()
	if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%q) error = %v, want ErrNotFound", k, err)
	}
}

func TestPutGetDelete(t *testing.T) {
	db := openTestDB(t)
	mustPut(t, db, "alpha", "1")
	mustPut(t, db, "beta", "2")
	mustGet(t, db, "alpha", "1")
	mustGet(t, db, "beta", "2")
	mustMiss(t, db, "gamma")

	mustPut(t, db, "alpha", "1b") // overwrite
	mustGet(t, db, "alpha", "1b")

	if err := db.Delete([]byte("alpha")); err != nil {
		t.Fatalf("Delete() error = %v", err)
	}
	mustMiss(t, db, "alpha")
	mustGet(t, db, "beta", "2")

	// Deleting an absent key is fine.
	if err := db.Delete([]byte("nope")); err != nil {
		t.Fatalf("Delete(absent) error = %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := openTestDB(t)
	if err := db.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("Put(empty) error = %v, want ErrEmptyKey", err)
	}
	if _, err := db.Get(nil); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("Get(empty) error = %v, want ErrEmptyKey", err)
	}
	if err := db.Delete(nil); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("Delete(empty) error = %v, want ErrEmptyKey", err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	db := openTestDB(t)
	mustPut(t, db, "k", "")
	mustGet(t, db, "k", "")
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush() error = %v", err)
	}
	mustGet(t, db, "k", "")
}

func TestClosedDBRejectsOps(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open() error = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close() error = %v", err)
	}
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put error = %v, want ErrClosed", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get error = %v, want ErrClosed", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close error = %v, want ErrClosed", err)
	}
}

func TestFlushAndReadFromSSTable(t *testing.T) {
	db := openTestDB(t)
	for i := 0; i < 200; i++ {
		mustPut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush() error = %v", err)
	}
	st := db.Stats()
	if st.SSTables != 1 {
		t.Fatalf("SSTables = %d, want 1", st.SSTables)
	}
	if st.MemtableEntries != 0 {
		t.Fatalf("MemtableEntries = %d, want 0 after flush", st.MemtableEntries)
	}
	for i := 0; i < 200; i++ {
		mustGet(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
	}
	mustMiss(t, db, "key-9999")
}

func TestMemtableShadowsSSTable(t *testing.T) {
	db := openTestDB(t)
	mustPut(t, db, "k", "old")
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush() error = %v", err)
	}
	mustPut(t, db, "k", "new")
	mustGet(t, db, "k", "new")

	// Tombstone in memtable shadows SSTable value.
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatalf("Delete() error = %v", err)
	}
	mustMiss(t, db, "k")
}

func TestNewerSSTableShadowsOlder(t *testing.T) {
	db := openTestDB(t)
	mustPut(t, db, "k", "v1")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k", "v2")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, db, "k", "v2")

	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, db, "k")
}

func TestAutomaticFlushOnMemtableSize(t *testing.T) {
	db := openTestDB(t, withMemtableBytes(1024))
	for i := 0; i < 200; i++ {
		mustPut(t, db, fmt.Sprintf("key-%04d", i), "some moderately sized value")
	}
	if st := db.Stats(); st.Flushes == 0 {
		t.Fatalf("Stats().Flushes = 0, want > 0 (auto-flush did not trigger)")
	}
	for i := 0; i < 200; i++ {
		mustGet(t, db, fmt.Sprintf("key-%04d", i), "some moderately sized value")
	}
}

func TestCompaction(t *testing.T) {
	db := openTestDB(t)
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			mustPut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("round-%d", round))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few, flush the tombstones.
	for i := 0; i < 10; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.SSTables != 6 {
		t.Fatalf("SSTables = %d, want 6 before compaction", st.SSTables)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact() error = %v", err)
	}
	st := db.Stats()
	if st.SSTables != 1 {
		t.Fatalf("SSTables = %d, want 1 after compaction", st.SSTables)
	}
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if i < 10 {
			mustMiss(t, db, key)
		} else {
			mustGet(t, db, key, "round-4")
		}
	}
}

func TestAutomaticCompaction(t *testing.T) {
	db := openTestDB(t, withMemtableBytes(256), withCompactionThreshold(2))
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("key-%05d", i), "vvvvvvvvvvvvvvvvvvvvvvvv")
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatalf("Compactions = 0, want > 0")
	}
	if st.SSTables > 3 {
		t.Fatalf("SSTables = %d, want bounded by threshold", st.SSTables)
	}
	for i := 0; i < 500; i++ {
		mustGet(t, db, fmt.Sprintf("key-%05d", i), "vvvvvvvvvvvvvvvvvvvvvvvv")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "persist", "me")
	mustPut(t, db, "doomed", "soon")
	if err := db.Delete([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: drop the handle WITHOUT Close (the WAL is already
	// on disk because appends flush).
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen error = %v", err)
	}
	defer db2.Close()
	mustGet(t, db2, "persist", "me")
	mustMiss(t, db2, "doomed")
}

func TestRecoveryFromSSTablesAndWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "flushed")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k000", "overwritten-in-wal")
	mustPut(t, db, "wal-only", "yes")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen error = %v", err)
	}
	defer db2.Close()
	mustGet(t, db2, "k000", "overwritten-in-wal")
	mustGet(t, db2, "k050", "flushed")
	mustGet(t, db2, "wal-only", "yes")
}

// flushedStore leaves a closed store in a new directory holding one table.
func flushedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k", "flushed")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenSkipsMisnamedTable: a file that parses as a table number but is
// not named exactly as the store names that table is not a table.
func TestOpenSkipsMisnamedTable(t *testing.T) {
	dir := flushedStore(t)
	planted := filepath.Join(dir, "sst-99.sst")
	if err := os.WriteFile(planted, []byte("not a table"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with a planted %s: %v", filepath.Base(planted), err)
	}
	defer db.Close()
	mustGet(t, db, "k", "flushed")
}

// TestOpenRemovesPartialTable: a table a crash cut short lies under its
// .tmp name, and Open deletes it.
func TestOpenRemovesPartialTable(t *testing.T) {
	dir := flushedStore(t)
	partial := filepath.Join(dir, "sst-00000007.sst.tmp")
	if err := os.WriteFile(partial, []byte("STRATAKV torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := os.Stat(partial); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial table after Open: %v, want it removed", err)
	}
	mustGet(t, db, "k", "flushed")
}

func TestScan(t *testing.T) {
	db := openTestDB(t)
	keys := []string{"a", "b", "c", "d", "e"}
	for i, k := range keys {
		mustPut(t, db, k, fmt.Sprint(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite one in the memtable, delete another.
	mustPut(t, db, "c", "new")
	if err := db.Delete([]byte("d")); err != nil {
		t.Fatal(err)
	}

	var got []string
	err := db.Scan([]byte("b"), []byte("e"), func(k, v []byte) bool {
		got = append(got, fmt.Sprintf("%s=%s", k, v))
		return true
	})
	if err != nil {
		t.Fatalf("Scan() error = %v", err)
	}
	want := "[b=1 c=new]"
	if fmt.Sprint(got) != want {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := openTestDB(t)
	for i := 0; i < 100; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	n := 0
	err := db.Scan(nil, nil, func(k, v []byte) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("visited %d keys, want 10", n)
	}
}

func TestScanPrefix(t *testing.T) {
	db := openTestDB(t)
	mustPut(t, db, "job/1/layer/1", "a")
	mustPut(t, db, "job/1/layer/2", "b")
	mustPut(t, db, "job/2/layer/1", "c")
	var got []string
	if err := db.ScanPrefix([]byte("job/1/"), func(k, v []byte) bool {
		got = append(got, string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("ScanPrefix = %v, want [a b]", got)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		if got := prefixEnd(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("prefixEnd(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := openTestDB(t, withMemtableBytes(4096))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				k := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := db.Put(k, []byte("v")); err != nil {
					errCh <- err
					return
				}
				if _, err := db.Get(k); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := db.Scan(nil, nil, func(k, v []byte) bool { return true })
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent op error = %v", err)
	}
	for w := 0; w < 4; w++ {
		mustGet(t, db, fmt.Sprintf("w%d-k%04d", w, 249), "v")
	}
}

// TestRandomizedAgainstMap drives the store with a random sequence of puts,
// deletes, atomic batches, prefix deletes and reads, and compares every
// observable result against a plain map reference model, including across
// flushes, compactions, and reopen. A failure prints its seed; replay it
// with -seed.
func TestRandomizedAgainstMap(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, withMemtableBytes(512), withCompactionThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(testseed.Seed(t)))
	randKey := func() string { return fmt.Sprintf("key-%03d", rng.Intn(150)) }

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(20); {
		case op < 8: // put
			k, v := randKey(), fmt.Sprintf("val-%d", step)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d: Put error = %v", step, err)
			}
			ref[k] = v
		case op < 11: // delete
			k := randKey()
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatalf("step %d: Delete error = %v", step, err)
			}
			delete(ref, k)
		case op < 13: // atomic batch of puts and deletes, applied in order
			var b Batch
			next := map[string]*string{}
			for i := rng.Intn(8); i >= 0; i-- {
				k := randKey()
				if rng.Intn(3) == 0 {
					b.Delete([]byte(k))
					next[k] = nil
				} else {
					v := fmt.Sprintf("val-%d.%d", step, i)
					b.Put([]byte(k), []byte(v))
					next[k] = &v
				}
			}
			if err := db.Apply(&b); err != nil {
				t.Fatalf("step %d: Apply error = %v", step, err)
			}
			for k, v := range next {
				if v == nil {
					delete(ref, k)
				} else {
					ref[k] = *v
				}
			}
		case op < 14: // delete every key under a ten-key prefix
			prefix := fmt.Sprintf("key-%02d", rng.Intn(15))
			want := 0
			for k := range ref {
				if strings.HasPrefix(k, prefix) {
					delete(ref, k)
					want++
				}
			}
			n, err := db.DeletePrefix([]byte(prefix))
			if err != nil || n != want {
				t.Fatalf("step %d: DeletePrefix(%q) = %d,%v want %d", step, prefix, n, err, want)
			}
		case op < 18: // get
			k := randKey()
			got, err := db.Get([]byte(k))
			want, ok := ref[k]
			if ok {
				if err != nil || string(got) != want {
					t.Fatalf("step %d: Get(%q) = %q,%v want %q", step, k, got, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Get(%q) error = %v, want ErrNotFound", step, k, err)
			}
		default: // occasionally flush or reopen
			if rng.Intn(4) == 0 {
				if err := db.Close(); err != nil {
					t.Fatalf("step %d: Close error = %v", step, err)
				}
				db, err = Open(dir, withMemtableBytes(512), withCompactionThreshold(3))
				if err != nil {
					t.Fatalf("step %d: reopen error = %v", step, err)
				}
			} else if err := db.Flush(); err != nil {
				t.Fatalf("step %d: Flush error = %v", step, err)
			}
		}
	}

	// Final full comparison via Scan.
	got := map[string]string{}
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("scan found %d keys, reference has %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("key %q: scan=%q ref=%q", k, got[k], v)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletePrefix(t *testing.T) {
	db := openTestDB(t)
	for _, k := range []string{"ckpt/p/1/meta", "ckpt/p/1/op/a", "ckpt/p/1/src/s", "ckpt/p/2/meta", "other"} {
		if err := db.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := db.DeletePrefix([]byte("ckpt/p/1/"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d keys, want 3", n)
	}
	for _, k := range []string{"ckpt/p/1/meta", "ckpt/p/1/op/a", "ckpt/p/1/src/s"} {
		if ok, _ := db.Has([]byte(k)); ok {
			t.Fatalf("%s survived DeletePrefix", k)
		}
	}
	for _, k := range []string{"ckpt/p/2/meta", "other"} {
		if ok, _ := db.Has([]byte(k)); !ok {
			t.Fatalf("%s wrongly deleted", k)
		}
	}
	// Empty prefix set is a no-op, not an error.
	if n, err := db.DeletePrefix([]byte("nope/")); err != nil || n != 0 {
		t.Fatalf("empty DeletePrefix: %d %v", n, err)
	}
}
