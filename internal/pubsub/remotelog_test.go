package pubsub

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRemoteLogFetchAcrossSever is the core contract of the remote fetch
// protocol: a RemoteCursor on a faulty link reads exactly the stored record
// sequence — contiguous offsets, byte-for-byte payloads — even when the link
// is severed mid-stream and requests/responses are lost and retried.
func TestRemoteLogFetchAcrossSever(t *testing.T) {
	const subject = "strata.raw.remote.j1"
	h := newReconnectHarness(t) // h.rc reaches the broker through the proxy

	// The log's owner connects directly (its side of the topology is not
	// under test) and serves fetches.
	direct, err := DialReconnect(h.srv.Addr(),
		WithReconnectWait(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	ls := openTestLog(t)
	for i := 0; i < 50; i++ {
		if _, err := ls.Append(subject, []byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := ServeLog(direct, ls, subject)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cur := NewRemoteCursor(h.rc, subject, 0)
	read := func(n int) []StoredMessage {
		t.Helper()
		var out []StoredMessage
		for len(out) < n {
			msgs, err := cur.Next(ctx, 7) // small batches force many round trips
			if err != nil {
				t.Fatalf("Next after %d records: %v", len(out), err)
			}
			out = append(out, msgs...)
		}
		return out
	}

	got := read(20) // may overshoot to a batch boundary
	h.proxy.Sever() // cut the consumer's link mid-stream
	got = append(got, read(50-len(got))...)

	if len(got) != 50 {
		t.Fatalf("read %d records, want 50", len(got))
	}
	for i, m := range got {
		if m.Offset != uint64(i) {
			t.Fatalf("record %d has offset %d, want %d (gap or duplicate)", i, m.Offset, i)
		}
		if want := fmt.Sprintf("record-%03d", i); string(m.Data) != want {
			t.Fatalf("record %d = %q, want %q", i, m.Data, want)
		}
	}

	// Live tail: records appended after the cursor caught up arrive via the
	// server's long poll.
	tailCtx, tailCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer tailCancel()
	done := make(chan error, 1)
	go func() {
		msgs, err := cur.Next(tailCtx, 10)
		if err == nil && (len(msgs) == 0 || msgs[0].Offset != 50) {
			err = fmt.Errorf("tail read = %d msgs, first offset %d", len(msgs), msgs[0].Offset)
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := ls.Append(subject, []byte("record-050")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("tail follow: %v", err)
	}
}

// TestRemoteCursorRecordTooLarge: a stored record larger than any fetch
// response frame can carry (Append takes up to seglog.MaxRecord, a frame
// holds 64 MiB) ends a batch. The records before it are served, and a fetch
// at its offset fails at once with a *RecordTooLargeError instead of being
// retried until the context ends.
func TestRemoteCursorRecordTooLarge(t *testing.T) {
	const subject = "strata.raw.big.j1"
	_, srv := startTestServer(t)
	owner, err := DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	reader, err := DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	ls := openTestLog(t)
	for i := 0; i < 3; i++ {
		if _, err := ls.Append(subject, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ls.Append(subject, make([]byte, 65<<20)); err != nil {
		t.Fatal(err)
	}
	logSrv, err := ServeLog(owner, ls, subject)
	if err != nil {
		t.Fatal(err)
	}
	defer logSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur := NewRemoteCursor(reader, subject, 0)
	var got []StoredMessage
	for len(got) < 3 {
		msgs, err := cur.Next(ctx, 10)
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(got), err)
		}
		got = append(got, msgs...)
	}
	for i, m := range got {
		if m.Offset != uint64(i) || string(m.Data) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = offset %d %q", i, m.Offset, m.Data)
		}
	}
	msgs, err := cur.Next(ctx, 10)
	var tooLarge *RecordTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Offset != 3 || tooLarge.Subject != subject {
		t.Fatalf("Next at the 65 MiB record = %d msgs, %v; want a *RecordTooLargeError at offset 3", len(msgs), err)
	}
	if cur.Offset() != 3 {
		t.Fatalf("cursor moved to %d past the record it could not read", cur.Offset())
	}
}
