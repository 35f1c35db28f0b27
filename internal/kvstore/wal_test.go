package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// walSize returns the current size of dir's WAL file.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	return st.Size()
}

// crashDB writes the given puts with synced WAL appends and then abandons
// the handle WITHOUT Close (Close would flush the memtable and delete the
// WAL — the opposite of a crash). It returns the WAL size after each put.
func crashDB(t *testing.T, dir string, puts [][2]string) []int64 {
	t.Helper()
	db, err := Open(dir, WithSyncWrites(true))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sizes := make([]int64, 0, len(puts))
	for _, kv := range puts {
		if err := db.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatalf("Put(%q): %v", kv[0], err)
		}
		sizes = append(sizes, walSize(t, dir))
	}
	// db deliberately leaks: the process "crashed" here.
	return sizes
}

// TestSyncPutAfterTornTailSurvivesReopen: a crash leaves wal.log ending
// mid-record; the store reopens, acknowledges a synced Put and crashes
// again. Recovery must have cut the torn bytes off before appending behind
// them, or the second reopen finds the acknowledged record behind garbage.
func TestSyncPutAfterTornTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	sizes := crashDB(t, dir, [][2]string{
		{"cal/threshold", "42"},
		{"cal/torn", "this record will be half-written"},
	})
	cut := sizes[0] + (sizes[1]-sizes[0])/2
	if err := os.Truncate(filepath.Join(dir, walFileName), cut); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	crashDB(t, dir, [][2]string{{"cal/after", "acked"}})

	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after torn tail + synced Put: %v", err)
	}
	defer db.Close()
	for k, want := range map[string]string{"cal/threshold": "42", "cal/after": "acked"} {
		if got, err := db.Get([]byte(k)); err != nil || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, want)
		}
	}
	if _, err := db.Get([]byte("cal/torn")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record resurfaced: Get = %v, want ErrNotFound", err)
	}
}

// TestGroupCommitConcurrentSyncPutsDurable: every Put(sync) that returned
// before the "crash" must survive it, no matter which cohort's fsync covered
// it. This is the core group-commit contract: coalescing fsyncs must not
// weaken any individual writer's durability point.
func TestGroupCommitConcurrentSyncPutsDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncWrites(true))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%03d", g, i)
				if err := db.Put([]byte(key), []byte(key)); err != nil {
					t.Errorf("Put(%q): %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	total := uint64(writers * perWriter)
	if commits := db.walStats.Commits.Load(); commits != total {
		t.Errorf("wal commits = %d, want %d (one durability point per Put)", commits, total)
	}
	if syncs := db.walStats.Syncs.Load(); syncs > db.walStats.Commits.Load() {
		t.Errorf("group syncs (%d) exceed commits (%d)", syncs, db.walStats.Commits.Load())
	}

	// db deliberately leaks: the process "crashed" here. Reopen and check
	// every acknowledged write came back.
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-k%03d", g, i)
			if got, err := db2.Get([]byte(key)); err != nil || string(got) != key {
				t.Fatalf("Get(%q) after crash = %q, %v", key, got, err)
			}
		}
	}
}

// TestGroupCommitCrashMidCohortTornTail: a crash while a cohort is forming
// leaves records that were appended but never committed — plus, possibly, a
// torn fragment the kernel half-wrote. Replay must recover exactly the
// committed prefix and treat the un-fsynced extension as a tolerable torn
// tail, not corruption.
func TestGroupCommitCrashMidCohortTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFileName)
	w, err := openWAL(path, true, nil, nil)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	off, err := w.append(walPut, []byte("committed"), []byte("1"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.log.Commit(off); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// The next cohort is mid-flight at crash time: appended into the
	// writer's buffer, never flushed, never fsynced.
	if _, err := w.append(walPut, []byte("lost-a"), []byte("2")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := w.append(walPut, []byte("lost-b"), []byte("3")); err != nil {
		t.Fatalf("append: %v", err)
	}
	// w deliberately leaks (crash). Simulate the kernel having persisted a
	// partial record of the dying cohort: a header plus truncated payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 20, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var keys []string
	w2, err := openWAL(path, true, nil, func(kind byte, key, value []byte) {
		keys = append(keys, string(key))
	})
	if err != nil {
		t.Fatalf("openWAL = %v (torn cohort tail should be tolerated)", err)
	}
	if err := w2.log.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[committed]" {
		t.Fatalf("replayed keys = %v, want exactly the committed prefix", keys)
	}

	// A full DB open over the same state agrees.
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if got, err := db.Get([]byte("committed")); err != nil || string(got) != "1" {
		t.Fatalf("Get(committed) = %q, %v", got, err)
	}
	if _, err := db.Get([]byte("lost-a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(lost-a) = %v, want ErrNotFound (never committed)", err)
	}
}
