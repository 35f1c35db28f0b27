package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeCRCTestTable(t *testing.T) (path string, entries []entry) {
	t.Helper()
	dir := t.TempDir()
	path = filepath.Join(dir, "t.sst")
	for i := 0; i < 100; i++ { // ~7 blocks at sstIndexInterval 16
		entries = append(entries, entry{
			key:   []byte(fmt.Sprintf("key-%05d", i)),
			value: []byte(fmt.Sprintf("value-%05d-padpadpadpad", i)),
		})
	}
	if _, err := writeSSTable(path, entries); err != nil {
		t.Fatal(err)
	}
	return path, entries
}

// TestSSTableBitFlipDetected is the regression test for per-block checksums:
// flip one bit inside a stored value and the point lookup must surface
// ErrCorrupt instead of silently serving the flipped bytes. (Before block
// CRCs existed this test failed: the only integrity check was the footer
// magic, so the corrupted value came back found=true with no error.)
func TestSSTableBitFlipDetected(t *testing.T) {
	path, entries := writeCRCTestTable(t)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := 50
	pos := bytes.Index(data, []byte(fmt.Sprintf("value-%05d", victim)))
	if pos < 0 {
		t.Fatal("victim value not found in file")
	}
	data[pos+8] ^= 0x01 // one flipped bit, mid-value
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cache := newBlockCache(1 << 20)
	tab, err := openSSTable(path, 1, cache)
	if err != nil {
		t.Fatalf("open after data-section bit flip should succeed (lazy verification): %v", err)
	}
	defer tab.close()

	if _, _, _, err := tab.get(entries[victim].key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get on bit-flipped block: err = %v, want ErrCorrupt", err)
	}
	// The corrupt block must not have been cached as good.
	if _, ok := cache.get(1, 50/sstIndexInterval); ok {
		t.Fatal("corrupt block was admitted to the block cache")
	}
	// Blocks outside the flipped one still verify and serve reads.
	v, _, found, err := tab.get(entries[0].key)
	if err != nil || !found || !bytes.Equal(v, entries[0].value) {
		t.Fatalf("get on clean block = %q,%v,%v, want clean read", v, found, err)
	}
}

// TestSSTableLegacyNoCRCSectionReadable proves forward compatibility: a
// table without the crc section (what every table written before this
// feature looks like — the section between bloom and footer is simply
// absent) opens and serves reads, just without verification.
func TestSSTableLegacyNoCRCSectionReadable(t *testing.T) {
	path, entries := writeCRCTestTable(t)

	// Strip the crc section. It sits between the bloom section's end and the
	// footer, and no footer field points at it, so cutting it out yields a
	// byte-exact pre-checksum table.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-sstFooterSize:]
	bloomOff := int64(uint64(footer[16]) | uint64(footer[17])<<8 | uint64(footer[18])<<16 | uint64(footer[19])<<24)
	bloomLen := int64(uint64(footer[24]) | uint64(footer[25])<<8 | uint64(footer[26])<<16 | uint64(footer[27])<<24)
	legacy := append([]byte(nil), data[:bloomOff+bloomLen]...)
	legacy = append(legacy, footer...)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	tab, err := openSSTable(path, 1, nil)
	if err != nil {
		t.Fatalf("legacy table without crc section should open: %v", err)
	}
	defer tab.close()
	if tab.crcs != nil {
		t.Fatal("legacy table should have nil crcs")
	}
	for _, i := range []int{0, 33, 99} {
		v, _, found, err := tab.get(entries[i].key)
		if err != nil || !found || !bytes.Equal(v, entries[i].value) {
			t.Fatalf("legacy get(%q) = %q,%v,%v", entries[i].key, v, found, err)
		}
	}
}

// TestSSTableTruncatedCRCSectionRejected: a crc section that is neither
// absent nor exactly one checksum per block is structural corruption and
// must fail at open.
func TestSSTableTruncatedCRCSectionRejected(t *testing.T) {
	path, _ := writeCRCTestTable(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut 2 bytes out of the crc section (just before the footer).
	cut := len(data) - sstFooterSize - 2
	mangled := append([]byte(nil), data[:cut]...)
	mangled = append(mangled, data[len(data)-sstFooterSize:]...)
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(path, 1, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with truncated crc section: err = %v, want ErrCorrupt", err)
	}
}
