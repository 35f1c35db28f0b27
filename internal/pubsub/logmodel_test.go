package pubsub

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"strata/internal/seglog"
	"strata/internal/testseed"
)

// TestLogStoreAgainstSlice drives a LogStore with random appends over two
// subjects, reads, remote-fetch batch reads, cursor reads, damage and
// reopens, and checks every read against a slice per subject. Appends
// commit, so a reopen keeps them all. A batch is appended to a buffer that
// already holds something, which must come back untouched, and must hold
// exactly the records the remoteLogMaxBatch rule admits. A byte flipped on
// disk must fail Read, the batch read and the cursor with ErrLogCorrupt.
// Replay a failure with -seed=N.
func TestLogStoreAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t)))
	dir := t.TempDir()
	ls, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ls.Close() }()
	subjects := []string{"model.a", "model.b_c"}
	model := map[string][][]byte{}
	cursors := map[string]*Cursor{}
	for _, s := range subjects {
		cursors[s] = ls.Cursor(s, 0)
	}
	payload := func() []byte {
		n := rng.Intn(300)
		if rng.Intn(6) == 0 {
			n = 150<<10 + rng.Intn(300<<10) // a few of these fill a batch
		}
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	// wantBatch is the model of appendLogBatch's record count.
	wantBatch := func(recs [][]byte, from uint64, max int) int {
		n, size := 0, 0
		for i := int(from); i < len(recs) && (max <= 0 || n < max); i++ {
			if n > 0 && size+12+len(recs[i]) > remoteLogMaxBatch {
				break
			}
			size += 12 + len(recs[i])
			n++
		}
		return n
	}
	checkRecords := func(step int, what, subject string, from uint64, got []StoredMessage, n int) {
		t.Helper()
		recs := model[subject]
		if len(got) != n {
			t.Fatalf("step %d: %s(%s, %d) = %d records, want %d", step, what, subject, from, len(got), n)
		}
		for k, m := range got {
			i := from + uint64(k)
			if m.Offset != i || m.Subject != subject || !bytes.Equal(m.Data, recs[i]) {
				t.Fatalf("step %d: %s(%s, %d): record %d is offset %d (%d bytes), want offset %d (%d bytes)",
					step, what, subject, from, k, m.Offset, len(m.Data), i, len(recs[i]))
			}
		}
	}
	// flip toggles one byte of record i's payload on disk (a CRC byte for
	// an empty record) and returns where, so the same call repairs it.
	flip := func(subject string, i int, off int64) int64 {
		path := filepath.Join(dir, subjectToFile(subject)+".log")
		if off < 0 {
			ls.mu.Lock()
			pos := ls.topics[subject].offsets[i]
			ls.mu.Unlock()
			if n := len(model[subject][i]); n > 0 {
				off = pos + seglog.HeaderSize + int64(rng.Intn(n))
			} else {
				off = pos + int64(rng.Intn(4))
			}
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x5a
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return off
	}

	for step := 0; step < 300; step++ {
		subject := subjects[rng.Intn(len(subjects))]
		recs := model[subject]
		from := uint64(rng.Intn(len(recs) + 2))
		max := rng.Intn(12) - 1
		switch op := rng.Intn(20); {
		case op < 7: // append
			p := payload()
			off, err := ls.Append(subject, p)
			if err != nil || off != uint64(len(recs)) {
				t.Fatalf("step %d: Append(%s) = %d, %v; want offset %d", step, subject, off, err, len(recs))
			}
			model[subject] = append(recs, p)
			if ls.Len(subject) != uint64(len(recs)+1) {
				t.Fatalf("step %d: Len(%s) = %d after %d appends", step, subject, ls.Len(subject), len(recs)+1)
			}
		case op < 10: // Read
			got, err := ls.Read(subject, from, max)
			if err != nil {
				t.Fatalf("step %d: Read: %v", step, err)
			}
			n := 0
			if from < uint64(len(recs)) {
				n = len(recs) - int(from)
				if max > 0 && max < n {
					n = max
				}
			}
			checkRecords(step, "Read", subject, from, got, n)
		case op < 14: // batch read behind a prefix
			prefix := make([]byte, rng.Intn(20))
			rng.Read(prefix)
			dst := append(make([]byte, 0, rng.Intn(1<<20)), prefix...)
			out, n, err := ls.appendLogBatch(dst, subject, from, max)
			if err != nil {
				t.Fatalf("step %d: appendLogBatch: %v", step, err)
			}
			if !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("step %d: appendLogBatch overwrote the %d bytes already in dst", step, len(prefix))
			}
			got, tooLarge := decodeLogBatch(subject, out[len(prefix):])
			if tooLarge != nil || n != len(got) {
				t.Fatalf("step %d: appendLogBatch says %d records, %d decode (%v)", step, n, len(got), tooLarge)
			}
			checkRecords(step, "appendLogBatch", subject, from, got, wantBatch(recs, from, max))
		case op < 17: // cursor
			c := cursors[subject]
			at := c.Offset()
			got, err := c.Next(max)
			if err != nil {
				t.Fatalf("step %d: Cursor.Next: %v", step, err)
			}
			n := len(recs) - int(at)
			if max > 0 && max < n {
				n = max
			}
			checkRecords(step, "Cursor.Next", subject, at, got, n)
			if c.Offset() != at+uint64(n) {
				t.Fatalf("step %d: cursor at %d after reading %d from %d", step, c.Offset(), n, at)
			}
		case op < 18: // damage a record, read it every way, repair it
			if len(recs) == 0 {
				continue
			}
			i := rng.Intn(len(recs))
			off := flip(subject, i, -1)
			if _, err := ls.Read(subject, uint64(i), 1); !errors.Is(err, ErrLogCorrupt) {
				t.Fatalf("step %d: Read(damaged record %d) = %v, want ErrLogCorrupt", step, i, err)
			}
			if out, _, err := ls.appendLogBatch([]byte("kept"), subject, uint64(i), 1); !errors.Is(err, ErrLogCorrupt) || string(out) != "kept" {
				t.Fatalf("step %d: appendLogBatch(damaged record %d) = %q, %v; want ErrLogCorrupt and dst unextended", step, i, out, err)
			}
			if _, err := ls.Cursor(subject, uint64(i)).Next(1); !errors.Is(err, ErrLogCorrupt) {
				t.Fatalf("step %d: Cursor.Next(damaged record %d) = %v, want ErrLogCorrupt", step, i, err)
			}
			flip(subject, i, off)
		default: // reopen
			if err := ls.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			if ls, err = OpenLogStore(dir); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			for _, s := range subjects {
				if ls.Len(s) != uint64(len(model[s])) {
					t.Fatalf("step %d: reopened %s holds %d records, model %d", step, s, ls.Len(s), len(model[s]))
				}
				cursors[s] = ls.Cursor(s, cursors[s].Offset())
			}
		}
	}
}
