package kvstore

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// bloomFilter is a classic Bloom filter with double hashing (Kirsch &
// Mitzenmacher): k hash values derived from two FNV-based hashes. It answers
// "definitely absent" or "possibly present" for SSTable point lookups.
type bloomFilter struct {
	bits []byte
	k    uint32
}

// newBloomFilter sizes the filter for n entries at roughly the given false
// positive rate (e.g. 0.01).
func newBloomFilter(n int, fpRate float64) *bloomFilter {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	mBits := int(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if mBits < 64 {
		mBits = 64
	}
	k := uint32(math.Round(float64(mBits) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &bloomFilter{bits: make([]byte, (mBits+7)/8), k: k}
}

func bloomHashes(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	// Derive a second, independent-enough hash by re-hashing the first.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], h1)
	h.Reset()
	h.Write(buf[:])
	h.Write(key)
	return h1, h.Sum64()
}

func (b *bloomFilter) add(key []byte) {
	h1, h2 := bloomHashes(key)
	m := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % m
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// mayContain reports whether key is possibly in the set. False means the key
// is definitely absent.
func (b *bloomFilter) mayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomHashes(key)
	m := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % m
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// marshal encodes the filter as k (uint32) followed by the bit array.
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 4+len(b.bits))
	binary.LittleEndian.PutUint32(out[:4], b.k)
	copy(out[4:], b.bits)
	return out
}

// unmarshalBloom decodes a marshaled filter. k above newBloomFilter's cap
// of 30 is corruption (and would turn every lookup into a k-round loop).
func unmarshalBloom(data []byte) (*bloomFilter, error) {
	if len(data) < 4 {
		return nil, ErrCorrupt
	}
	k := binary.LittleEndian.Uint32(data[:4])
	if k > 30 {
		return nil, ErrCorrupt
	}
	return &bloomFilter{k: k, bits: data[4:]}, nil
}
