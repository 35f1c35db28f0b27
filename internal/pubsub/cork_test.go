package pubsub

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// drainFrames decodes every complete frame in buf, returning the op bytes in
// wire order.
func drainFrames(t *testing.T, buf *bytes.Buffer) []byte {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	var ops []byte
	for {
		op, _, f, err := readRelayFrame(r, nil)
		f.release()
		if err != nil {
			return ops
		}
		ops = append(ops, op)
	}
}

// TestCorkedWriterDisabledFlushesEveryFrame: interval 0 is the documented
// opt-out — every write flushes inline (pre-cork behavior) and no flusher
// goroutine exists to race the assertions.
func TestCorkedWriterDisabledFlushesEveryFrame(t *testing.T) {
	var buf bytes.Buffer
	var stats flushStats
	cw := newCorkedWriter(bufio.NewWriter(&buf), 0, &stats)
	for i := 0; i < 5; i++ {
		if err := cw.writeCorked(opPub, []byte("s"), []byte("m")); err != nil {
			t.Fatalf("writeCorked: %v", err)
		}
	}
	if frames, flushes := stats.frames.Load(), stats.flushes.Load(); frames != 5 || flushes != 5 {
		t.Fatalf("frames=%d flushes=%d, want 5/5 (corking disabled)", frames, flushes)
	}
	if got := drainFrames(t, &buf); len(got) != 5 {
		t.Fatalf("decoded %d frames, want 5", len(got))
	}
	if err := cw.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := cw.writeCorked(opPub, []byte("s")); err != ErrClosed {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

// TestCorkedWriterWriteNowFlushesEarlierCorkedFrames: a control frame must
// carry any data frames buffered before it, in write order — the wire order
// invariant the shared buffer exists to preserve.
func TestCorkedWriterWriteNowFlushesEarlierCorkedFrames(t *testing.T) {
	var buf bytes.Buffer
	// An hour-long interval: after the flusher's first immediate flush, any
	// further corked frames stay buffered until something flushes inline.
	cw := newCorkedWriter(bufio.NewWriter(&buf), time.Hour, nil)
	defer cw.close()
	if err := cw.writeCorked(opPub, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("writeCorked: %v", err)
	}
	if err := cw.writeNow(opPong); err != nil {
		t.Fatalf("writeNow: %v", err)
	}
	got := drainFrames(t, &buf)
	if len(got) != 2 || got[0] != opPub || got[1] != opPong {
		t.Fatalf("wire ops = %v, want [opPub opPong] in write order", got)
	}
}

// TestCorkedWriterCloseFlushesBufferedFrames: close is a durability point —
// frames corked but not yet flushed must reach the underlying writer before
// the connection tears down.
func TestCorkedWriterCloseFlushesBufferedFrames(t *testing.T) {
	var buf bytes.Buffer
	var stats flushStats
	cw := newCorkedWriter(bufio.NewWriter(&buf), time.Hour, &stats)
	for i := 0; i < 3; i++ {
		if err := cw.writeCorked(opPub, []byte("s"), []byte("m")); err != nil {
			t.Fatalf("writeCorked: %v", err)
		}
	}
	if err := cw.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := drainFrames(t, &buf); len(got) != 3 {
		t.Fatalf("decoded %d frames after close, want all 3", len(got))
	}
	if frames, flushes := stats.frames.Load(), stats.flushes.Load(); flushes > frames {
		t.Fatalf("flushes (%d) exceed frames (%d)", flushes, frames)
	}
}

// TestClientFlushesSavedUnderBurst: end-to-end coalescing evidence — a pub
// burst on a corked connection reaches the subscriber intact while the client
// issues far fewer socket flushes than frames.
func TestClientFlushesSavedUnderBurst(t *testing.T) {
	_, srv := startTestServer(t)

	sub := dialTest(t, srv)
	cs, err := sub.Subscribe("burst", WithSubBuffer(256))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Barrier: the server's read loop has registered the subscription.
	if err := sub.Ping(5 * time.Second); err != nil {
		t.Fatalf("Ping sub: %v", err)
	}

	// An hour-long interval so only the flusher's initial idle flush and the
	// Ping barrier ever hit the socket: coalescing becomes deterministic.
	pub := dialLink(t, srv.Addr(), time.Hour)

	const n = 50
	for i := 0; i < n; i++ {
		if err := pub.PublishMsg(Message{Subject: "burst", Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	// Ping flushes the corked burst and round-trips the broker.
	if err := pub.Ping(5 * time.Second); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-cs.C:
			if len(m.Data) != 1 || m.Data[0] != byte(i) {
				t.Fatalf("msg %d = %v, want [%d] (order broken)", i, m.Data, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("msg %d never arrived: corked frames lost", i)
		}
	}
	frames, flushes := pub.wstats.frames.Load(), pub.wstats.flushes.Load()
	if flushes > frames || frames-flushes < n/2 {
		t.Fatalf("%d frames in %d flushes, want at least %d saved (burst should coalesce)", frames, flushes, n/2)
	}
}
