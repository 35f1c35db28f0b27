package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"strata/internal/testseed"
)

func TestSkiplistOrderedIteration(t *testing.T) {
	m := newMemtable(7)
	keys := rand.New(rand.NewSource(1)).Perm(500)
	for _, k := range keys {
		m.put([]byte(fmt.Sprintf("%06d", k)), []byte("v"), false)
	}
	all := m.all()
	if len(all) != 500 {
		t.Fatalf("len(all) = %d, want 500", len(all))
	}
	for i := 1; i < len(all); i++ {
		if bytes.Compare(all[i-1].key, all[i].key) >= 0 {
			t.Fatalf("iteration not strictly ascending at %d: %q >= %q", i, all[i-1].key, all[i].key)
		}
	}
}

func TestSkiplistOverwrite(t *testing.T) {
	m := newMemtable(7)
	m.put([]byte("k"), []byte("v1"), false)
	m.put([]byte("k"), []byte("v2"), false)
	if m.count != 1 {
		t.Fatalf("count = %d, want 1 after overwrite", m.count)
	}
	v, tomb, found := m.get([]byte("k"))
	if !found || tomb || string(v) != "v2" {
		t.Fatalf("get = %q,%v,%v, want v2,false,true", v, tomb, found)
	}
}

func TestSkiplistSeek(t *testing.T) {
	m := newMemtable(7)
	for _, k := range []string{"b", "d", "f"} {
		m.put([]byte(k), []byte("v"), false)
	}
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"f", "f"},
	}
	for _, c := range cases {
		it := m.seek([]byte(c.seek))
		if !it.valid() || string(it.entry().key) != c.want {
			t.Errorf("seek(%q) landed on %q, want %q", c.seek, it.entry().key, c.want)
		}
	}
	if it := m.seek([]byte("g")); it.valid() {
		t.Error("seek past end should be invalid")
	}
}

// TestSkiplistPropertyMatchesMap exercises the skiplist with random
// put/overwrite/tombstone sequences against a map reference.
func TestSkiplistPropertyMatchesMap(t *testing.T) {
	prop := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMemtable(seed)
		type refVal struct {
			val  string
			tomb bool
		}
		ref := map[string]refVal{}
		for i := 0; i < int(n%600); i++ {
			k := fmt.Sprintf("%03d", rng.Intn(100))
			v := fmt.Sprintf("%d", i)
			tomb := rng.Intn(5) == 0
			m.put([]byte(k), []byte(v), tomb)
			ref[k] = refVal{val: v, tomb: tomb}
		}
		if m.count != len(ref) {
			return false
		}
		for k, rv := range ref {
			v, tomb, found := m.get([]byte(k))
			if !found || tomb != rv.tomb || string(v) != rv.val {
				return false
			}
		}
		// Iteration must be sorted and complete.
		all := m.all()
		if len(all) != len(ref) {
			return false
		}
		for i := 1; i < len(all); i++ {
			if bytes.Compare(all[i-1].key, all[i].key) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	bf := newBloomFilter(1000, 0.01)
	for i := 0; i < 1000; i++ {
		bf.add([]byte(fmt.Sprintf("member-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !bf.mayContain([]byte(fmt.Sprintf("member-%d", i))) {
			t.Fatalf("false negative for member-%d", i)
		}
	}
}

func TestBloomFilterFalsePositiveRate(t *testing.T) {
	bf := newBloomFilter(1000, 0.01)
	for i := 0; i < 1000; i++ {
		bf.add([]byte(fmt.Sprintf("member-%d", i)))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if bf.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	// Target 1%; accept up to 3% to keep the test robust.
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate = %.4f, want < 0.03", rate)
	}
}

func TestBloomFilterRoundTrip(t *testing.T) {
	bf := newBloomFilter(100, 0.01)
	bf.add([]byte("x"))
	bf2, err := unmarshalBloom(bf.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bf2.mayContain([]byte("x")) {
		t.Fatal("round-tripped filter lost membership")
	}
	if _, err := unmarshalBloom([]byte{1, 2}); err == nil {
		t.Fatal("unmarshalBloom(short) should fail")
	}
}

func TestSSTableWriteReadSeek(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	var entries []entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, entry{
			key:       []byte(fmt.Sprintf("key-%05d", i*2)), // even keys only
			value:     []byte(fmt.Sprintf("val-%d", i)),
			tombstone: i%97 == 0,
		})
	}
	if _, err := writeSSTable(path, entries); err != nil {
		t.Fatal(err)
	}
	tab, err := openSSTable(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.close()

	// Point lookups: every present key, including tombstones.
	for i := 0; i < 1000; i += 37 {
		want := entries[i]
		v, tomb, found, err := tab.get(want.key)
		if err != nil {
			t.Fatal(err)
		}
		if !found || tomb != want.tombstone || !bytes.Equal(v, want.value) {
			t.Fatalf("get(%q) = %q,%v,%v", want.key, v, tomb, found)
		}
	}
	// Absent keys (odd) must be not-found.
	for i := 1; i < 2000; i += 212 { // odd keys stay odd: all absent
		if _, _, found, err := tab.get([]byte(fmt.Sprintf("key-%05d", i))); err != nil || found {
			t.Fatalf("get(absent key-%05d) found=%v err=%v", i, found, err)
		}
	}
	// Full scan returns everything in order.
	it, err := tab.first()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var prev []byte
	for it.valid() {
		e := it.entry()
		if prev != nil && bytes.Compare(prev, e.key) >= 0 {
			t.Fatalf("scan order violated at %q", e.key)
		}
		prev = append(prev[:0], e.key...)
		n++
		if err := it.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if n != 1000 {
		t.Fatalf("scan visited %d entries, want 1000", n)
	}
}

func TestSSTableCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	if _, err := writeSSTable(path, []entry{{key: []byte("k"), value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the footer magic.
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(path, 1, nil); err == nil {
		t.Fatal("openSSTable should fail on bad magic")
	}
}

func TestSSTableTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	if err := os.WriteFile(path, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(path, 1, nil); err == nil {
		t.Fatal("openSSTable should fail on truncated file")
	}
}

// TestSSTablePropertyRoundTrip writes random sorted entry sets and verifies
// every entry survives the round trip, via both point gets and a full scan.
func TestSSTablePropertyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fileNo := 0
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		var entries []entry
		for i := 0; i < int(n); i++ {
			k := fmt.Sprintf("%04d", rng.Intn(5000))
			if seen[k] {
				continue
			}
			seen[k] = true
			vlen := rng.Intn(100)
			v := make([]byte, vlen)
			rng.Read(v)
			entries = append(entries, entry{key: []byte(k), value: v, tombstone: rng.Intn(7) == 0})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })

		fileNo++
		path := filepath.Join(dir, fmt.Sprintf("p%d.sst", fileNo))
		if _, err := writeSSTable(path, entries); err != nil {
			return false
		}
		tab, err := openSSTable(path, uint64(fileNo), nil)
		if err != nil {
			return false
		}
		defer tab.close()
		for _, e := range entries {
			v, tomb, found, err := tab.get(e.key)
			if err != nil || !found || tomb != e.tombstone || !bytes.Equal(v, e.value) {
				return false
			}
		}
		it, err := tab.first()
		if err != nil {
			return false
		}
		count := 0
		for it.valid() {
			count++
			if err := it.advance(); err != nil {
				return false
			}
		}
		return count == len(entries)
	}
	if err := quick.Check(prop, testseed.Quick(t, 40)); err != nil {
		t.Fatal(err)
	}
}
