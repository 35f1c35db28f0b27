package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// sstableSeed writes n entries with writeSSTable and returns the file bytes.
func sstableSeed(f *testing.F, n int) []byte {
	f.Helper()
	var entries []entry
	for i := 0; i < n; i++ {
		entries = append(entries, entry{
			key:   []byte(fmt.Sprintf("key-%04d", i)),
			value: []byte(fmt.Sprintf("value-%04d", i)),
		})
	}
	path := filepath.Join(f.TempDir(), "seed.sst")
	if _, err := writeSSTable(path, entries); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sstableSections returns the index section's offset and length and the crc
// section's offset, read from the footer of a well-formed table.
func sstableSections(data []byte) (indexOff, indexLen, crcOff int) {
	footer := data[len(data)-sstFooterSize:]
	indexOff = int(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen = int(binary.LittleEndian.Uint64(footer[8:16]))
	crcOff = int(binary.LittleEndian.Uint64(footer[16:24]) + binary.LittleEndian.Uint64(footer[24:32]))
	return indexOff, indexLen, crcOff
}

// withIndex splices a replacement index section into a well-formed table and
// moves the footer's section offsets to match, so only the index is bad.
func withIndex(data, index []byte) []byte {
	indexOff, indexLen, _ := sstableSections(data)
	out := append(append(append([]byte(nil), data[:indexOff]...), index...), data[indexOff+indexLen:]...)
	footer := out[len(out)-sstFooterSize:]
	bloomOff := binary.LittleEndian.Uint64(footer[16:24])
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[16:24], bloomOff+uint64(len(index))-uint64(indexLen))
	return out
}

// FuzzOpenSSTable writes arbitrary bytes as a table file, opens it, scans it
// end to end and looks up every index key plus one absent key. Each step
// either succeeds or fails with an error wrapping ErrCorrupt: no panic, and
// no allocation sized by an unchecked on-disk value.
func FuzzOpenSSTable(f *testing.F) {
	valid := sstableSeed(f, 40) // three blocks at sstIndexInterval 16
	indexOff, indexLen, crcOff := sstableSections(valid)
	index, err := parseIndex(valid[indexOff:indexOff+indexLen], int64(indexOff))
	if err != nil || len(index) != 3 {
		f.Fatalf("seed index = %d entries, %v; want 3", len(index), err)
	}
	flip := func(at int) []byte {
		b := append([]byte(nil), valid...)
		b[at] ^= 0xff
		return b
	}
	encodeIndex := func(count uint64, entries []indexEntry) []byte {
		b := binary.AppendUvarint(nil, count)
		for _, ie := range entries {
			b = binary.AppendUvarint(b, uint64(len(ie.key)))
			b = append(b, ie.key...)
			b = binary.AppendUvarint(b, uint64(ie.offset))
		}
		return b
	}
	swapped := append([]indexEntry(nil), index...)
	swapped[1].offset, swapped[2].offset = swapped[2].offset, swapped[1].offset

	f.Add(valid)                                                                               // valid
	f.Add(valid[:len(valid)-sstFooterSize/2])                                                  // cut footer
	f.Add(flip(indexOff + 1))                                                                  // flipped index byte (first key's length)
	f.Add(flip(crcOff + 1))                                                                    // flipped block CRC
	f.Add(withIndex(valid, encodeIndex(1<<60, index)))                                         // huge index count
	f.Add(withIndex(valid, encodeIndex(uint64(len(swapped)), swapped)))                        // non-monotone offset
	f.Add(withIndex(valid, encodeIndex(1, []indexEntry{{key: []byte("k"), offset: 1 << 40}}))) // offset past the data
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		corrupt := func(what string, err error) bool {
			t.Helper()
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s = %v, want nil or ErrCorrupt", what, err)
			}
			return err != nil
		}
		path := filepath.Join(t.TempDir(), "t.sst")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tab, err := openSSTable(path, 1, newBlockCache(1<<16))
		if corrupt("openSSTable", err) {
			return
		}
		defer tab.close()

		it, err := tab.first()
		for !corrupt("scan", err) && it.valid() {
			err = it.advance()
		}
		for _, ie := range tab.index {
			_, _, _, err := tab.get(ie.key)
			corrupt(fmt.Sprintf("get(%q)", ie.key), err)
		}
		_, _, _, err = tab.get([]byte("absent"))
		corrupt("get(absent)", err)
	})
}
