package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"strata/internal/testseed"
)

// frame encodes one record the way the format comment states it, without
// going through Append, so the tests check the format and not just that the
// package agrees with itself.
func frame(payload []byte) []byte {
	b := make([]byte, HeaderSize, HeaderSize+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(payload)))
	return append(b, payload...)
}

// reopen opens path and returns the log with every record it replayed.
func reopen(t testing.TB, path string) (*Log, [][]byte, []int64, error) {
	t.Helper()
	var recs [][]byte
	var at []int64
	l, err := Open(path, false, nil, func(pos int64, payload []byte) error {
		recs = append(recs, append([]byte(nil), payload...))
		at = append(at, pos)
		return nil
	})
	return l, recs, at, err
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// checkRecovered asserts that path recovers to exactly want, that the file
// is cut to the intact prefix, and that an append after recovery survives
// another reopen and reads back by position.
func checkRecovered(t *testing.T, path string, want [][]byte) {
	t.Helper()
	l, recs, _, err := reopen(t, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	wantSize := int64(0)
	for i, w := range want {
		if !bytes.Equal(recs[i], w) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], w)
		}
		wantSize += HeaderSize + int64(len(w))
	}
	if got := fileSize(t, path); got != wantSize || l.Size() != wantSize {
		t.Fatalf("after recovery file is %d bytes, Size %d; want the intact prefix, %d", got, l.Size(), wantSize)
	}

	after := []byte("appended after recovery")
	end, err := l.Append(after)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(end); err != nil {
		t.Fatal(err)
	}
	if got, err := l.ReadAt(wantSize); err != nil || !bytes.Equal(got, after) {
		t.Fatalf("ReadAt(%d) = %q, %v", wantSize, got, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, recs, at, err := reopen(t, path)
	if err != nil {
		t.Fatalf("reopen after append: %v", err)
	}
	defer l.Close()
	if len(recs) != len(want)+1 || !bytes.Equal(recs[len(want)], after) || at[len(want)] != wantSize {
		t.Fatalf("reopen after append: %d records, last %q; want %d ending in %q", len(recs), recs[len(recs)-1], len(want)+1, after)
	}
}

// TestCrashMatrix is the one crash-recovery test for every layer that sits
// on this package: a log of six records is cut at every byte boundary
// inside its last two records, and separately every bit-flip position of a
// middle record is damaged.
func TestCrashMatrix(t *testing.T) {
	payloads := [][]byte{
		[]byte("cal/threshold=42"),
		{},
		bytes.Repeat([]byte{0xab}, 300),
		[]byte("middle record"),
		[]byte("second to last"),
		[]byte("the last record, torn at every byte"),
	}
	var whole []byte
	var starts []int64
	for _, p := range payloads {
		starts = append(starts, int64(len(whole)))
		whole = append(whole, frame(p)...)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// The frames above are what Append writes.
	path := filepath.Join(dir, "appended")
	l, err := Open(path, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if pos := l.Size(); pos != starts[i] {
			t.Fatalf("record %d starts at %d, want %d", i, pos, starts[i])
		}
		end, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(end); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("Append wrote %d bytes that differ from the documented frames (%d bytes), err %v", len(got), len(whole), err)
	}

	t.Run("cut", func(t *testing.T) {
		for cut := starts[len(starts)-2]; cut <= int64(len(whole)); cut++ {
			intact := 0
			for intact < len(payloads) && starts[intact]+HeaderSize+int64(len(payloads[intact])) <= cut {
				intact++
			}
			t.Run(fmt.Sprint(cut), func(t *testing.T) {
				checkRecovered(t, write(fmt.Sprintf("cut-%d", cut), whole[:cut]), payloads[:intact])
			})
		}
	})

	// One flipped bit per byte of the final record: header or payload, the
	// record is dropped and nothing before it is.
	t.Run("flip-final", func(t *testing.T) {
		last := len(payloads) - 1
		for off := starts[last]; off < int64(len(whole)); off++ {
			data := append([]byte(nil), whole...)
			data[off] ^= 0x10
			newLen := int64(binary.LittleEndian.Uint32(data[starts[last]+4:]))
			if starts[last]+HeaderSize+newLen < int64(len(data)) {
				continue // a shrunk length leaves bytes after the record: the mid-log case
			}
			t.Run(fmt.Sprint(off), func(t *testing.T) {
				checkRecovered(t, write(fmt.Sprintf("final-%d", off), data), payloads[:last])
			})
		}
	})

	// One flipped bit per byte of a middle record. Damage to the CRC or the
	// payload must fail the open and leave the file alone. Damage to the
	// length either does the same or, when the new length runs past the end
	// of the file, is indistinguishable from a torn tail.
	t.Run("flip-middle", func(t *testing.T) {
		const mid = 3
		for off := starts[mid]; off < starts[mid+1]; off++ {
			for _, bit := range []byte{0x01, 0x80} {
				data := append([]byte(nil), whole...)
				data[off] ^= bit
				path := write(fmt.Sprintf("mid-%d-%x", off, bit), data)
				newLen := int64(binary.LittleEndian.Uint32(data[starts[mid]+4:]))
				if starts[mid]+HeaderSize+newLen >= int64(len(data)) {
					checkRecovered(t, path, payloads[:mid])
					continue
				}
				for pass := 0; pass < 2; pass++ {
					if _, _, _, err := reopen(t, path); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("byte %d bit %#x, open %d = %v, want ErrCorrupt", off, bit, pass, err)
					}
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("byte %d: a refused open modified the file", off)
				}
			}
		}
	})
}

// TestGroupCommit: concurrent appenders each commit their own record; every
// acknowledged record is on disk without Close (a second handle reads the
// file), cohorts never outnumber commits, and readers see records that are
// still in the writer's buffer.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var stats Stats
	fsyncs := 0
	stats.ObserveFsync = func(time.Duration) { fsyncs++ } // called under the commit lock
	l, err := Open(path, true, &stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var order sync.Mutex // the caller's lock that makes Size+Append one step
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := []byte(fmt.Sprintf("w%d-%03d", w, i))
				order.Lock()
				pos := l.Size()
				end, err := l.Append(payload)
				order.Unlock()
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if got, err := l.ReadAt(pos); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("ReadAt(%d) before commit = %q, %v", pos, got, err)
				}
				if err := l.Commit(end); err != nil {
					t.Errorf("Commit: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	commits, syncs := stats.Commits.Load(), stats.Syncs.Load()
	if commits != writers*per || syncs == 0 || syncs > commits || uint64(fsyncs) != syncs {
		t.Fatalf("commits=%d syncs=%d fsyncs=%d, want %d commits and 1..commits syncs, each one fsync", commits, syncs, fsyncs, writers*per)
	}

	// The process "crashes" here: l is never closed.
	l2, recs, _, err := reopen(t, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != writers*per {
		t.Fatalf("%d records on disk, want %d", len(recs), writers*per)
	}

	// A commit that races Close is covered by Close's own flush and fsync.
	end, err := l.Append([]byte("closing"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(end); err != nil {
		t.Fatalf("Commit after Close = %v, want nil", err)
	}
	if _, err := l.Append(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestStickyCommitError: once a flush or fsync fails, durability is unknown
// and every later Commit reports the first failure.
func TestStickyCommitError(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log"), true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the disk "fails": flush and fsync now error
	end, err := l.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	first := l.Commit(end)
	if first == nil {
		t.Fatal("Commit on a failed file returned nil")
	}
	if again := l.Commit(end); again != first {
		t.Fatalf("second Commit = %v, want the first error %v", again, first)
	}
}

// TestReadAtVerifies: a positional read checks the CRC again, so damage that
// happens after the open is reported, not returned.
func TestReadAtVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	put := func(p string) (end int64) {
		end, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(end); err != nil {
			t.Fatal(err)
		}
		return end
	}
	second := put("first")
	put("second")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{'F'}, HeaderSize); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadAt(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt(damaged record) = %v, want ErrCorrupt", err)
	}
	if got, err := l.ReadAt(second); err != nil || string(got) != "second" {
		t.Fatalf("ReadAt(%d) = %q, %v", second, got, err)
	}
	if _, err := l.ReadAt(l.Size()); err == nil {
		t.Fatal("ReadAt(end of log) returned a record")
	}
}

// FuzzRecover: Open must cope with any file contents — no panic, no
// allocation beyond what the file itself could justify, and a file that
// reopens to the same records (or to the same refusal).
func FuzzRecover(f *testing.F) {
	valid := append(append(frame([]byte("one")), frame([]byte("two"))...), frame(bytes.Repeat([]byte("3"), 100))...)
	f.Add(valid)                                                                        // valid log
	f.Add(append(append([]byte(nil), valid...), 1, 2, 3))                               // torn header
	f.Add(append(append([]byte(nil), valid...), frame([]byte("torn payload"))[:14]...)) // torn payload
	f.Add(append(append([]byte(nil), valid...), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 9)) // oversized length
	f.Add(append(frame(nil), frame([]byte("after an empty record"))...))                // zero-length record
	f.Add(append(frame([]byte("damaged"))[:HeaderSize+3], valid...))                    // damage with intact records after it
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, recs, _, err := reopen(t, path)
		runtime.ReadMemStats(&after)
		// One scan buffer, one record buffer and the test's own copies of
		// the payloads, none of which can exceed the file.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4*len(data)); grew > limit {
			t.Fatalf("Open of a %d-byte file allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want nil or ErrCorrupt", err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("a refused open modified the file")
			}
			if _, _, _, err := reopen(t, path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("second Open = %v, want ErrCorrupt again", err)
			}
			return
		}
		kept := int64(0)
		for _, r := range recs {
			kept += HeaderSize + int64(len(r))
		}
		if got := fileSize(t, path); got != kept || !bytes.Equal(data[:kept], mustRead(t, path)) {
			t.Fatalf("recovered file is %d bytes, want the %d-byte intact prefix", got, kept)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again, _, err := reopen(t, path)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("reopen = %d records, %v; want %d", len(again), err, len(recs))
		}
		l.Close()
	})
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLogAgainstSlice drives a log with random appends, commits, reads,
// damage, clean reopens and crashes, and checks it against a slice of
// payloads. Reads go through AppendAt with a random prefix already in dst,
// which must come back untouched. A byte flipped on disk must read as
// ErrCorrupt. A crash copies the file as it is on disk while the log is
// open, losing the writer's buffer: the copy must recover a prefix of the
// model that keeps every committed record. Replay a failure with -seed=N.
func TestLogAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t)))
	dir := t.TempDir()
	path := filepath.Join(dir, "log.0")
	l, err := Open(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	var recs [][]byte // the model: payload i starts at at[i]
	var at []int64
	committed := 0 // records a Commit has covered
	payload := func() []byte {
		n := rng.Intn(200)
		if rng.Intn(8) == 0 {
			n = rng.Intn(3 * 4096) // past the writer's buffer: written through
		}
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	end := func(i int) int64 { return at[i] + HeaderSize + int64(len(recs[i])) }
	flipped := func(i int) int64 { // a payload byte, or a CRC byte of an empty record
		if len(recs[i]) == 0 {
			return at[i] + int64(rng.Intn(4))
		}
		return at[i] + HeaderSize + int64(rng.Intn(len(recs[i])))
	}
	flip := func(off int64) {
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
	}
	checkReplay := func(l *Log, got [][]byte, gotAt []int64) {
		for i := range got {
			if gotAt[i] != at[i] || !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("replayed record %d at %d (%d bytes), model has it at %d (%d bytes)", i, gotAt[i], len(got[i]), at[i], len(recs[i]))
			}
		}
		if n := len(got); n > 0 && l.Size() != end(n-1) || n == 0 && l.Size() != 0 {
			t.Fatalf("reopened log is %d bytes after %d records", l.Size(), n)
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 8 || len(recs) == 0: // append
			p := payload()
			pos := l.Size()
			e, err := l.Append(p)
			if err != nil || e != pos+HeaderSize+int64(len(p)) {
				t.Fatalf("step %d: Append(%d bytes) at %d = %d, %v", step, len(p), pos, e, err)
			}
			recs, at = append(recs, p), append(at, pos)
		case op < 10: // commit through a random record
			k := 1 + rng.Intn(len(recs))
			if err := l.Commit(end(k - 1)); err != nil {
				t.Fatalf("step %d: Commit: %v", step, err)
			}
			committed = max(committed, k)
		case op < 15: // read into a buffer that already holds something
			i := rng.Intn(len(recs))
			prefix := make([]byte, rng.Intn(16))
			rng.Read(prefix)
			dst := append(make([]byte, 0, rng.Intn(64)), prefix...)
			got, err := l.AppendAt(dst, at[i])
			if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], recs[i]) {
				t.Fatalf("step %d: AppendAt(record %d) = %d bytes, %v; prefix or payload wrong", step, i, len(got), err)
			}
		case op < 16: // damage one record on disk, read it, repair it
			i := rng.Intn(len(recs))
			if _, err := l.ReadAt(at[i]); err != nil { // flushes the writer, so the record is on disk
				t.Fatalf("step %d: ReadAt(record %d): %v", step, i, err)
			}
			off := flipped(i)
			flip(off)
			dst := []byte("kept")
			if got, err := l.AppendAt(dst, at[i]); !errors.Is(err, ErrCorrupt) || string(got) != "kept" {
				t.Fatalf("step %d: AppendAt(record %d, byte %d flipped) = %q, %v; want ErrCorrupt and dst unextended", step, i, off, got, err)
			}
			flip(off)
		case op < 18: // clean reopen: Close keeps every record
			if err := l.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			var got [][]byte
			var gotAt []int64
			if l, got, gotAt, err = reopen(t, path); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			if len(got) != len(recs) {
				t.Fatalf("step %d: reopen replayed %d records, model has %d", step, len(got), len(recs))
			}
			checkReplay(l, got, gotAt)
			committed = len(recs)
		default: // crash: recover a copy of what reached the disk
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			crashed := filepath.Join(dir, fmt.Sprintf("log.%d", step))
			if err := os.WriteFile(crashed, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			var got [][]byte
			var gotAt []int64
			path = crashed
			if l, got, gotAt, err = reopen(t, path); err != nil {
				t.Fatalf("step %d: recover: %v", step, err)
			}
			if len(got) < committed || len(got) > len(recs) {
				t.Fatalf("step %d: recovered %d records; %d were committed, %d appended", step, len(got), committed, len(recs))
			}
			checkReplay(l, got, gotAt)
			recs, at, committed = recs[:len(got)], at[:len(got)], len(got)
		}
	}
}
