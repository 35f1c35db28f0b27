package kvstore

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// copyDir copies the flat fixture directory src into a fresh temp dir (Open
// and Close rewrite the store, and testdata must stay as committed).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestGoldenStoreFormatUnchanged opens a store directory written before the
// WAL moved onto internal/seglog (one SSTable plus a wal.log holding puts,
// a delete, a batch and an empty value, abandoned without Close): the
// on-disk format is unchanged, so it must read back identically. A copy
// with one byte flipped in the middle of the WAL must still fail the open
// with this package's ErrCorrupt.
func TestGoldenStoreFormatUnchanged(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "golden-store"))
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open golden store: %v", err)
	}
	want := map[string]string{
		"cal/threshold": "43",
		"ckpt/p/1/meta": "epoch-1",
		"ckpt/p/latest": "1",
		"empty":         "",
	}
	got := map[string]string{}
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("golden store holds %v, want %v", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	dir = copyDir(t, filepath.Join("testdata", "golden-store"))
	path := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xff // a payload byte of the first of several records
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log damage = %v, want ErrCorrupt", err)
	}
}
