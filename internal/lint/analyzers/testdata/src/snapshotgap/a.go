// Test fixtures for the snapshotgap analyzer: a Snapshotter's
// Snapshot/Restore pair must reference every mutable field of its
// receiver.
package a

import (
	"bytes"
	"encoding/gob"
	"time"
)

// brokenOp mutates seen and total at runtime, but its gob blob only
// carries seen: total is silently reset on crash recovery.
type brokenOp struct {
	out   chan int       // wiring, exempt
	cfg   int            // never mutated, nothing to snapshot
	seen  map[string]int // mutated and snapshotted
	total int            // mutated, forgotten
}

func (b *brokenOp) push(k string, v int) {
	b.seen[k] = v
	b.total += v
	b.out <- v
}

type brokenBlob struct{ Seen map[string]int }

func (b *brokenOp) Snapshot() ([]byte, error) { // want `Snapshot/Restore of brokenOp never reference mutable field total`
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(brokenBlob{Seen: b.seen})
	return buf.Bytes(), err
}

func (b *brokenOp) Restore(data []byte) error {
	var blob brokenBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return err
	}
	b.seen = blob.Seen
	return nil
}

// journalOp's only state is a value field of an imported type, written
// through a pointer-receiver method. The method body is in another package,
// so the call is judged a write — and the Snapshot that forgets the field
// is a gap.
type journalOp struct {
	log bytes.Buffer
}

func (j *journalOp) push(k string) { j.log.WriteString(k) }

func (j *journalOp) Snapshot() ([]byte, error) { return nil, nil } // want `Snapshot/Restore of journalOp never reference mutable field log`

func (j *journalOp) Restore([]byte) error { return nil }

// goodOp mutates the same shape of state but snapshots all of it.
type goodOp struct {
	out   chan int
	seen  map[string]int
	total int
	log   bytes.Buffer
	start time.Time // value-receiver methods only: calls are not writes
}

func (g *goodOp) push(k string, v int) {
	g.seen[k] = v
	g.total += v
	g.log.WriteString(k)
	_ = g.start.String()
	g.out <- v
}

type goodBlob struct {
	Seen  map[string]int
	Total int
	Log   string
}

func (g *goodOp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(goodBlob{Seen: g.seen, Total: g.total, Log: g.log.String()})
	return buf.Bytes(), err
}

func (g *goodOp) Restore(data []byte) error {
	var blob goodBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return err
	}
	g.seen = blob.Seen
	g.total = blob.Total
	g.log.WriteString(blob.Log)
	return nil
}

// tracker is mutable but implements no Snapshot/Restore pair: no
// diagnostics.
type tracker struct{ n int }

func (t *tracker) bump() { t.n++ }

// sharedOp mutates state behind a pointer field. Pointee state is shared
// with whoever else holds the pointer — the engine's contract is that
// snapshots capture receiver-owned memory only, so this is clean.
type sharedOp struct {
	out   chan int
	stats *tracker
	seq   int
}

func (s *sharedOp) push(v int) {
	s.stats.bump()
	s.seq++
	s.out <- v
}

func (s *sharedOp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s.seq)
	return buf.Bytes(), err
}

func (s *sharedOp) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&s.seq)
}

// cacheOp deliberately excludes a rebuildable statistic from its blob; the
// suppression names the analyzer and gives the reason.
type cacheOp struct {
	out  chan int
	hits int
	data map[string]int
}

func (c *cacheOp) push(k string, v int) {
	c.data[k] = v
	c.hits++
	c.out <- v
}

//lint:ignore snapshotgap hits is a warm-cache statistic, rebuilt from data on restore
func (c *cacheOp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(c.data)
	return buf.Bytes(), err
}

func (c *cacheOp) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&c.data)
}

// lazyOp's finding comes from the imported-type rule — suppression must
// silence it the same as a local write.
type lazyOp struct {
	out chan int
	log bytes.Buffer
}

func (l *lazyOp) push(v int) {
	l.log.WriteByte(byte(v))
	l.out <- v
}

//lint:ignore snapshotgap the log is a debugging aid; a restart may reset it
func (l *lazyOp) Snapshot() ([]byte, error) { return nil, nil }

func (l *lazyOp) Restore([]byte) error { return nil }
