package pubsub

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTestLog(t *testing.T) *LogStore {
	t.Helper()
	ls, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return ls
}

func TestLogStoreAppendRead(t *testing.T) {
	ls := openTestLog(t)
	for i := 0; i < 10; i++ {
		off, err := ls.Append("raw.ot", []byte(fmt.Sprintf("layer-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	if n := ls.Len("raw.ot"); n != 10 {
		t.Fatalf("Len = %d", n)
	}
	msgs, err := ls.Read("raw.ot", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 || string(msgs[3].Data) != "layer-3" || msgs[3].Offset != 3 {
		t.Fatalf("msgs = %+v", msgs)
	}
	// Partial reads.
	tail, err := ls.Read("raw.ot", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || string(tail[0].Data) != "layer-7" {
		t.Fatalf("tail = %+v", tail)
	}
	// Past the end / unknown subject.
	if msgs, err := ls.Read("raw.ot", 100, 0); err != nil || msgs != nil {
		t.Fatalf("past end: %v %v", msgs, err)
	}
	if msgs, err := ls.Read("nope", 0, 0); err != nil || msgs != nil {
		t.Fatalf("unknown subject: %v %v", msgs, err)
	}
}

func TestLogStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ls, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ls.Append("a.b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ls.Append("other_topic.x", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	ls2, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	if n := ls2.Len("a.b"); n != 5 {
		t.Fatalf("Len after reopen = %d", n)
	}
	if n := ls2.Len("other_topic.x"); n != 1 {
		t.Fatalf("underscore subject lost: %d", n)
	}
	// Appends continue at the right offset.
	off, err := ls2.Append("a.b", []byte{9})
	if err != nil {
		t.Fatal(err)
	}
	if off != 5 {
		t.Fatalf("offset after reopen = %d, want 5", off)
	}
	msgs, err := ls2.Read("a.b", 4, 2)
	if err != nil || len(msgs) != 2 || msgs[1].Data[0] != 9 {
		t.Fatalf("read after reopen: %+v, %v", msgs, err)
	}
	if got := len(ls2.Subjects()); got != 2 {
		t.Fatalf("Subjects = %d, want 2", got)
	}
}

// TestLogStoreDropsDamagedFinalRecord: the last record's payload has one
// flipped byte (a crash persisted the header's page but not the payload's).
// Reopen must drop it instead of indexing a record no Read can return, and
// the next append must take its offset.
func TestLogStoreDropsDamagedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	ls, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"first", "second", "damaged"} {
		if _, err := ls.Append("t", []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, subjectToFile("t")+".log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ls2, err := OpenLogStore(dir)
	if err != nil {
		t.Fatalf("reopen with a damaged final record: %v", err)
	}
	defer ls2.Close()
	if n := ls2.Len("t"); n != 2 {
		t.Fatalf("Len = %d, want 2 (damaged record dropped)", n)
	}
	off, err := ls2.Append("t", []byte("next"))
	if err != nil || off != 2 {
		t.Fatalf("append after recovery: off=%d err=%v, want offset 2", off, err)
	}
	msgs, err := ls2.Read("t", 0, 0)
	if err != nil || len(msgs) != 3 || string(msgs[2].Data) != "next" {
		t.Fatalf("after recovery: %+v %v", msgs, err)
	}
}

// TestGoldenLogFormatUnchanged opens a topic directory written before the
// topic files moved onto internal/seglog: the on-disk format is unchanged,
// so every record must read back identically, and a copy with one byte
// flipped mid-log must fail the open with ErrLogCorrupt.
func TestGoldenLogFormatUnchanged(t *testing.T) {
	copyGolden := func() string {
		dir := t.TempDir()
		src := filepath.Join("testdata", "golden-log")
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	ls, err := OpenLogStore(copyGolden())
	if err != nil {
		t.Fatalf("open golden log: %v", err)
	}
	defer ls.Close()
	want := map[string][]string{
		"am.m1.ot_image": {"layer-0", "layer-1", "layer-2", "layer-3"},
		"ctl_x":          {"", "\x00\x01\x02\xff"},
	}
	if got := len(ls.Subjects()); got != len(want) {
		t.Fatalf("Subjects = %v, want %d topics", ls.Subjects(), len(want))
	}
	for subject, recs := range want {
		msgs, err := ls.Read(subject, 0, 0)
		if err != nil || len(msgs) != len(recs) {
			t.Fatalf("Read(%s) = %d records, %v; want %d", subject, len(msgs), err, len(recs))
		}
		for i, m := range msgs {
			if string(m.Data) != recs[i] || m.Offset != uint64(i) {
				t.Fatalf("%s[%d] = %q at offset %d, want %q", subject, i, m.Data, m.Offset, recs[i])
			}
		}
	}

	dir := copyGolden()
	path := filepath.Join(dir, subjectToFile("am.m1.ot_image")+".log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xff // a payload byte of the first of four records
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogStore(dir); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("open with mid-log damage = %v, want ErrLogCorrupt", err)
	}
}

func TestSubjectFileNameRoundTrip(t *testing.T) {
	for _, s := range []string{"a", "a.b.c", "with_underscore.x", "a__b.c_-d"} {
		if got := fileToSubject(subjectToFile(s)); got != s {
			t.Errorf("round trip %q → %q", s, got)
		}
	}
}

func TestRecorderCapturesBrokerTraffic(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	ls := openTestLog(t)
	rec, err := Record(b, "strata.raw.>", ls)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := b.Publish("strata.raw.ot.j1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Publish("strata.events.x", []byte("not recorded")); err != nil {
		t.Fatal(err)
	}
	// Wait for the recorder to drain.
	deadline := time.Now().Add(5 * time.Second)
	for ls.Len("strata.raw.ot.j1") < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := ls.Len("strata.raw.ot.j1"); n != 20 {
		t.Fatalf("recorded %d messages, want 20", n)
	}
	if n := ls.Len("strata.events.x"); n != 0 {
		t.Fatalf("recorded non-matching subject (%d)", n)
	}
	msgs, err := ls.Read("strata.raw.ot.j1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if m.Data[0] != byte(i) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestLogStoreClosedOps(t *testing.T) {
	ls, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Append("x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close = %v", err)
	}
	if err := ls.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
}

func TestLogStoreGroupCommitDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	ls, err := OpenLogStore(dir, WithLogSync(SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent appenders exercise the coalescing path.
	var wg sync.WaitGroup
	const writers, per = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := ls.Append("grp", []byte{byte(w), byte(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commits, syncs := ls.SyncStats()
	if commits != writers*per {
		t.Fatalf("commits = %d, want %d", commits, writers*per)
	}
	if syncs == 0 || syncs > commits {
		t.Fatalf("syncs = %d (commits %d)", syncs, commits)
	}
	// Every returned append must be on disk even if the process dies here:
	// reopen the directory without closing the first store (a close would
	// flush, masking a missing fsync path).
	ls2, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := ls2.Len("grp"); n != writers*per {
		t.Fatalf("records on disk = %d, want %d", n, writers*per)
	}
	ls2.Close()
	ls.Close()
}

func TestCursorNextAdvances(t *testing.T) {
	ls := openTestLog(t)
	for i := 0; i < 5; i++ {
		if _, err := ls.Append("cur", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := ls.Cursor("cur", 0)
	msgs, err := c.Next(2)
	if err != nil || len(msgs) != 2 || c.Offset() != 2 {
		t.Fatalf("Next(2): %d msgs, off %d, %v", len(msgs), c.Offset(), err)
	}
	msgs, err = c.Next(0)
	if err != nil || len(msgs) != 3 || msgs[0].Offset != 2 || c.Offset() != 5 {
		t.Fatalf("Next(0): %+v off %d, %v", msgs, c.Offset(), err)
	}
	msgs, err = c.Next(0)
	if err != nil || msgs != nil {
		t.Fatalf("caught-up Next: %v %v", msgs, err)
	}
}

func TestCursorNextWaitTailsNotYetExistingTopic(t *testing.T) {
	ls := openTestLog(t)
	c := ls.Cursor("late.topic", 0)
	errCh := make(chan error, 1)
	got := make(chan []StoredMessage, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		msgs, err := c.NextWait(ctx, 0)
		errCh <- err
		got <- msgs
	}()
	time.Sleep(10 * time.Millisecond) // let the cursor park
	if _, err := ls.Append("late.topic", []byte("born")); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	msgs := <-got
	if len(msgs) != 1 || string(msgs[0].Data) != "born" || c.Offset() != 1 {
		t.Fatalf("tailed: %+v off %d", msgs, c.Offset())
	}
}

func TestCursorNextWaitHonorsContext(t *testing.T) {
	ls := openTestLog(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := ls.Cursor("quiet", 0).NextWait(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("NextWait = %v, want deadline exceeded", err)
	}
}

func TestCursorNextWaitUnblocksOnClose(t *testing.T) {
	ls, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := ls.Cursor("quiet", 0).NextWait(context.Background(), 0)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("NextWait after close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NextWait did not unblock on Close")
	}
}
