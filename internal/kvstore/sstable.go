package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"strata/internal/seglog"
)

// SSTable file layout (little endian):
//
//	magic            uint64
//	data section:    entries, each
//	                   keyLen  uvarint
//	                   valTag  uvarint  (valueLen<<1 | tombstoneBit)
//	                   key     bytes
//	                   value   bytes
//	index section:   count uvarint, then per sampled entry
//	                   keyLen uvarint, key bytes, dataOffset uvarint
//	bloom section:   marshaled bloom filter
//	crc section:     crc32 (IEEE) uint32 per data block, in block order
//	footer (40 B):   indexOff, indexLen, bloomOff, bloomLen uint64; magic uint64
//
// Entries are sorted by key and unique. The index samples every
// sstIndexInterval-th entry (always including the first), so a point lookup
// binary-searches the in-memory index and scans at most one interval of the
// data section.
//
// A data block is the byte range between consecutive index samples (the unit
// block() fetches and the block cache holds). The crc section carries one
// checksum per block, verified when a block is read off disk: WAL records
// and pubsub log records are CRC-guarded, and without this a flipped bit in
// a long-lived table would be served silently for the rest of the table's
// life. The section sits between bloom and footer, so its bounds are
// derivable from the existing footer fields (bloomOff+bloomLen up to the
// footer) and the footer format is unchanged; a zero-length section marks a
// table from before checksums and reads without verification.
const (
	sstMagic         uint64 = 0x5354524154414b56 // "STRATAKV"
	sstIndexInterval        = 16
	sstFooterSize           = 40
)

type indexEntry struct {
	key    []byte
	offset int64
}

// writeSSTable writes entries (sorted by key, unique) to path and returns the
// number of entries written. The table is written and fsynced under
// path+tmpSuffix, then renamed into place and its directory fsynced, so
// path holds either nothing or the whole table, durably.
func writeSSTable(path string, entries []entry) (int, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("create sstable: %w", err)
	}
	if err := writeSSTableTo(f, entries); err != nil {
		return 0, errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return 0, errors.Join(fmt.Errorf("sync sstable: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("close sstable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("install sstable: %w", err)
	}
	if err := seglog.SyncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("sync sstable dir: %w", err)
	}
	return len(entries), nil
}

// writeSSTableTo streams the table body to f; the caller owns syncing and
// closing the file so there is exactly one close path.
func writeSSTableTo(f *os.File, entries []entry) error {
	w := bufio.NewWriterSize(f, 1<<16)

	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], sstMagic)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("write sstable header: %w", err)
	}

	bloom := newBloomFilter(len(entries), bloomFalsePositiveRate)
	index := make([]indexEntry, 0, len(entries)/sstIndexInterval+1)
	blockCRCs := make([]uint32, 0, cap(index))
	blockHash := crc32.NewIEEE()
	offset := int64(8)
	var scratch [2 * binary.MaxVarintLen64]byte
	for i, e := range entries {
		if i%sstIndexInterval == 0 {
			if i > 0 {
				blockCRCs = append(blockCRCs, blockHash.Sum32())
				blockHash.Reset()
			}
			index = append(index, indexEntry{key: append([]byte(nil), e.key...), offset: offset})
		}
		bloom.add(e.key)
		n := binary.PutUvarint(scratch[:], uint64(len(e.key)))
		tag := uint64(len(e.value)) << 1
		if e.tombstone {
			tag |= 1
		}
		n += binary.PutUvarint(scratch[n:], tag)
		if _, err := w.Write(scratch[:n]); err != nil {
			return fmt.Errorf("write sstable entry: %w", err)
		}
		if _, err := w.Write(e.key); err != nil {
			return fmt.Errorf("write sstable entry: %w", err)
		}
		if _, err := w.Write(e.value); err != nil {
			return fmt.Errorf("write sstable entry: %w", err)
		}
		// Hash exactly the bytes block() will read back: the checksum input
		// and the verification input must be the same byte range.
		blockHash.Write(scratch[:n])
		blockHash.Write(e.key)
		blockHash.Write(e.value)
		offset += int64(n + len(e.key) + len(e.value))
	}
	if len(entries) > 0 {
		blockCRCs = append(blockCRCs, blockHash.Sum32())
	}

	indexOff := offset
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(index)))
	buf.Write(tmp[:n])
	for _, ie := range index {
		n = binary.PutUvarint(tmp[:], uint64(len(ie.key)))
		buf.Write(tmp[:n])
		buf.Write(ie.key)
		n = binary.PutUvarint(tmp[:], uint64(ie.offset))
		buf.Write(tmp[:n])
	}
	indexLen := int64(buf.Len())
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("write sstable index: %w", err)
	}

	bloomBytes := bloom.marshal()
	bloomOff := indexOff + indexLen
	if _, err := w.Write(bloomBytes); err != nil {
		return fmt.Errorf("write sstable bloom: %w", err)
	}

	crcBytes := make([]byte, 4*len(blockCRCs))
	for i, crc := range blockCRCs {
		binary.LittleEndian.PutUint32(crcBytes[4*i:], crc)
	}
	if _, err := w.Write(crcBytes); err != nil {
		return fmt.Errorf("write sstable block crcs: %w", err)
	}

	var footer [sstFooterSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(indexLen))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(bloomBytes)))
	binary.LittleEndian.PutUint64(footer[32:40], sstMagic)
	if _, err := w.Write(footer[:]); err != nil {
		return fmt.Errorf("write sstable footer: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("flush sstable: %w", err)
	}
	return nil
}

// sstable is an open, immutable on-disk table. Reads are safe for concurrent
// use (ReadAt on the underlying file).
type sstable struct {
	path    string
	f       *os.File
	index   []indexEntry
	bloom   *bloomFilter
	crcs    []uint32 // per-block crc32; nil for pre-checksum tables
	dataEnd int64    // offset where the data section ends (== indexOff)
	num     uint64
	cache   *blockCache // shared with the owning DB; nil = uncached
}

func openSSTable(path string, num uint64, cache *blockCache) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open sstable: %w", err)
	}
	t, err := loadSSTable(f, path, num)
	if err != nil {
		// The load error is primary; the handle close is still surfaced
		// alongside it rather than dropped.
		return nil, errors.Join(err, f.Close())
	}
	t.cache = cache
	return t, nil
}

// loadSSTable reads the footer, index, and bloom sections of an open table
// file. The caller owns f and closes it on error, so every failure here is
// a plain return.
func loadSSTable(f *os.File, path string, num uint64) (*sstable, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat sstable: %w", err)
	}
	if st.Size() < 8+sstFooterSize {
		return nil, fmt.Errorf("%w: sstable %s too small", ErrCorrupt, path)
	}
	var footer [sstFooterSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-sstFooterSize); err != nil {
		return nil, fmt.Errorf("read sstable footer: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[32:40]) != sstMagic {
		return nil, fmt.Errorf("%w: sstable %s bad magic", ErrCorrupt, path)
	}
	// Every size read off disk is checked against the file before anything
	// is allocated from it; the comparisons are unsigned and subtract
	// instead of add, so no footer value can overflow past them.
	size := uint64(st.Size())
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	indexLen := binary.LittleEndian.Uint64(footer[8:16])
	bloomOff := binary.LittleEndian.Uint64(footer[16:24])
	bloomLen := binary.LittleEndian.Uint64(footer[24:32])
	if indexOff < 8 || indexOff > size || indexLen > size-indexOff ||
		bloomOff > size || bloomLen > size-bloomOff {
		return nil, fmt.Errorf("%w: sstable %s bad section bounds", ErrCorrupt, path)
	}

	idxBytes := make([]byte, indexLen)
	if _, err := f.ReadAt(idxBytes, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("read sstable index: %w", err)
	}
	index, err := parseIndex(idxBytes, int64(indexOff))
	if err != nil {
		return nil, fmt.Errorf("sstable %s: %w", path, err)
	}

	bloomBytes := make([]byte, bloomLen)
	if _, err := f.ReadAt(bloomBytes, int64(bloomOff)); err != nil {
		return nil, fmt.Errorf("read sstable bloom: %w", err)
	}
	bloom, err := unmarshalBloom(bloomBytes)
	if err != nil {
		return nil, fmt.Errorf("sstable %s bloom: %w", path, err)
	}

	// The crc section fills the gap between bloom and footer; its length is
	// derivable, so the footer needed no new fields. Zero-length means a
	// table written before block checksums — readable, just unverified.
	crcOff := int64(bloomOff + bloomLen)
	crcLen := st.Size() - sstFooterSize - crcOff
	var crcs []uint32
	switch {
	case crcLen == 0:
	case crcLen == int64(4*len(index)):
		crcBytes := make([]byte, crcLen)
		if _, err := f.ReadAt(crcBytes, crcOff); err != nil {
			return nil, fmt.Errorf("read sstable block crcs: %w", err)
		}
		crcs = make([]uint32, len(index))
		for i := range crcs {
			crcs[i] = binary.LittleEndian.Uint32(crcBytes[4*i:])
		}
	default:
		return nil, fmt.Errorf("%w: sstable %s crc section is %d bytes, want 0 or %d",
			ErrCorrupt, path, crcLen, 4*len(index))
	}

	return &sstable{path: path, f: f, index: index, bloom: bloom, crcs: crcs, dataEnd: int64(indexOff), num: num}, nil
}

// parseIndex decodes the index section of a table whose data section ends at
// dataEnd. Block offsets must rise strictly inside [8, dataEnd): block()
// allocates the distance between neighbours.
func parseIndex(b []byte, dataEnd int64) ([]indexEntry, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad index count", ErrCorrupt)
	}
	b = b[n:]
	// An entry takes at least two bytes (key length and offset), which
	// bounds the count by the section before it sizes an allocation.
	if count > uint64(len(b))/2 {
		return nil, fmt.Errorf("%w: index count %d exceeds its %d-byte section", ErrCorrupt, count, len(b))
	}
	out := make([]indexEntry, 0, count)
	prev := int64(7)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(b)
		if n <= 0 || klen > uint64(len(b)-n) {
			return nil, fmt.Errorf("%w: bad index key", ErrCorrupt)
		}
		key := append([]byte(nil), b[n:n+int(klen)]...)
		b = b[n+int(klen):]
		off, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad index offset", ErrCorrupt)
		}
		if off <= uint64(prev) || off >= uint64(dataEnd) {
			return nil, fmt.Errorf("%w: index offset %d outside (%d, %d)", ErrCorrupt, off, prev, dataEnd)
		}
		prev = int64(off)
		b = b[n:]
		out = append(out, indexEntry{key: key, offset: prev})
	}
	return out, nil
}

func (t *sstable) close() error { return t.f.Close() }

// get performs a point lookup. found=false means key is not in this table;
// found=true surfaces the value or tombstone.
//
// The lookup is block-granular: the index's binary search names the one
// data block (index interval) that can hold the key, the block is fetched
// whole — through the shared LRU block cache when the DB has one — and its
// entries are scanned in place. Keys are compared without copying; only a
// matched value is materialized (the returned copy must outlive the cached
// block).
func (t *sstable) get(key []byte) (value []byte, tombstone, found bool, err error) {
	if !t.bloom.mayContain(key) {
		return nil, false, false, nil
	}
	// The last index entry with key ≤ target names the block; entries are
	// sorted, so a key before the table's first entry is absent.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) > 0
	}) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	b, err := t.block(i)
	if err != nil {
		return nil, false, false, err
	}
	for len(b) > 0 {
		klen, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, false, false, fmt.Errorf("%w: bad sstable block entry", ErrCorrupt)
		}
		b = b[n:]
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, false, false, fmt.Errorf("%w: bad sstable block entry", ErrCorrupt)
		}
		b = b[n:]
		if klen > uint64(len(b)) || tag>>1 > uint64(len(b))-klen {
			return nil, false, false, fmt.Errorf("%w: truncated sstable block entry", ErrCorrupt)
		}
		vlen := int(tag >> 1)
		switch bytes.Compare(b[:klen], key) {
		case 0:
			return append([]byte(nil), b[klen:int(klen)+vlen]...), tag&1 == 1, true, nil
		case 1:
			return nil, false, false, nil // sorted: past the target
		}
		b = b[int(klen)+vlen:]
	}
	return nil, false, false, nil
}

// block returns the raw bytes of data block i (the byte range from index
// sample i up to the next sample or the end of the data section), consulting
// the shared cache first. The returned slice is shared and read-only.
func (t *sstable) block(i int) ([]byte, error) {
	if t.cache != nil {
		if b, ok := t.cache.get(t.num, i); ok {
			return b, nil
		}
	}
	start := t.index[i].offset
	end := t.dataEnd
	if i+1 < len(t.index) {
		end = t.index[i+1].offset
	}
	b := make([]byte, end-start)
	if _, err := t.f.ReadAt(b, start); err != nil {
		return nil, fmt.Errorf("read sstable block: %w", err)
	}
	// Verify at the cache-fill point: every cached copy descends from a read
	// that passed its checksum, so a flipped bit on disk is caught the first
	// time the block is touched instead of being served for the rest of the
	// table's life.
	if t.crcs != nil {
		if got := crc32.ChecksumIEEE(b); got != t.crcs[i] {
			return nil, fmt.Errorf("%w: sstable %s block %d crc mismatch (got %08x, want %08x)",
				ErrCorrupt, t.path, i, got, t.crcs[i])
		}
	}
	if t.cache != nil {
		t.cache.put(t.num, i, b)
	}
	return b, nil
}

// seek returns an iterator positioned at the first entry with key ≥ target.
func (t *sstable) seek(target []byte) (*sstIterator, error) {
	// Binary search: the last index entry with key ≤ target.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, target) > 0
	}) - 1
	start := int64(8)
	if i >= 0 {
		start = t.index[i].offset
	}
	it := &sstIterator{
		t:      t,
		r:      bufio.NewReaderSize(io.NewSectionReader(t.f, start, t.dataEnd-start), 1<<15),
		remain: t.dataEnd - start,
	}
	if err := it.advance(); err != nil {
		return nil, err
	}
	for it.valid() && bytes.Compare(it.cur.key, target) < 0 {
		if err := it.advance(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// first returns an iterator positioned at the table's first entry.
func (t *sstable) first() (*sstIterator, error) {
	it := &sstIterator{
		t:      t,
		r:      bufio.NewReaderSize(io.NewSectionReader(t.f, 8, t.dataEnd-8), 1<<15),
		remain: t.dataEnd - 8,
	}
	if err := it.advance(); err != nil {
		return nil, err
	}
	return it, nil
}

// sstIterator streams the data section of one table in key order.
type sstIterator struct {
	t      *sstable
	r      *bufio.Reader
	remain int64 // unread bytes of the data section: bounds key and value sizes
	cur    entry
	done   bool
}

func (it *sstIterator) valid() bool  { return !it.done }
func (it *sstIterator) entry() entry { return it.cur }

// ReadByte makes the iterator the io.ByteReader its uvarints are read
// through, so remain counts their bytes too.
func (it *sstIterator) ReadByte() (byte, error) {
	c, err := it.r.ReadByte()
	if err == nil {
		it.remain--
	}
	return c, err
}

// advance reads the next entry, setting done at end of the data section.
func (it *sstIterator) advance() error {
	klen, err := binary.ReadUvarint(it)
	if err != nil {
		if err == io.EOF {
			it.done = true
			return nil
		}
		return fmt.Errorf("%w: sstable iterate: %v", ErrCorrupt, err)
	}
	tag, err := binary.ReadUvarint(it)
	if err != nil {
		return fmt.Errorf("%w: truncated sstable entry", ErrCorrupt)
	}
	if klen > uint64(it.remain) || tag>>1 > uint64(it.remain)-klen {
		return fmt.Errorf("%w: sstable entry overruns its data section", ErrCorrupt)
	}
	it.remain -= int64(klen + tag>>1)
	key := make([]byte, klen)
	if _, err := io.ReadFull(it.r, key); err != nil {
		return fmt.Errorf("%w: truncated sstable key", ErrCorrupt)
	}
	vlen := tag >> 1
	value := make([]byte, vlen)
	if _, err := io.ReadFull(it.r, value); err != nil {
		return fmt.Errorf("%w: truncated sstable value", ErrCorrupt)
	}
	it.cur = entry{key: key, value: value, tombstone: tag&1 == 1}
	return nil
}
