package pubsub

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestServer runs a broker + TCP server on a loopback port.
func startTestServer(t *testing.T) (*Broker, *Server) {
	t.Helper()
	b := NewBroker()
	srv, err := Serve(b, "127.0.0.1:0", withServerLogf(t.Logf))
	if err != nil {
		t.Fatalf("Serve() error = %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		b.Close()
	})
	return b, srv
}

// dialTest connects a client to srv, closed at cleanup.
func dialTest(t *testing.T, srv *Server) *ReconnectConn {
	t.Helper()
	c, err := DialReconnect(srv.Addr())
	if err != nil {
		t.Fatalf("DialReconnect() error = %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialLink connects one bare link, the connection a ReconnectConn runs its
// protocol over, with cork interval flushInterval; it is closed at cleanup.
func dialLink(tb testing.TB, addr string, flushInterval time.Duration) *link {
	tb.Helper()
	l, err := dial(addr, flushInterval)
	if err != nil {
		tb.Fatalf("dial() error = %v", err)
	}
	tb.Cleanup(func() { l.Close() })
	return l
}

// subscribeLink subscribes pattern on l straight into a fresh end, as a
// ReconnectConn attaches its subscriptions, with the SUB frame flushed.
// Nothing closes the end when l closes.
func subscribeLink(tb testing.TB, l *link, pattern string, opts ...SubOption) *subEnd {
	tb.Helper()
	end := &subEnd{}
	end.init(opts)
	if _, err := l.attach(end, pattern, true); err != nil {
		tb.Fatalf("attach(%q) error = %v", pattern, err)
	}
	return end
}

func TestTCPPublishToLocalSubscriber(t *testing.T) {
	b, srv := startTestServer(t)
	local, err := b.Subscribe("remote.>")
	if err != nil {
		t.Fatal(err)
	}
	client := dialTest(t, srv)
	if err := client.Publish("remote.data", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, local.C)
	if m.Subject != "remote.data" || string(m.Data) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestTCPSubscribeReceivesLocalPublish(t *testing.T) {
	b, srv := startTestServer(t)
	client := dialTest(t, srv)
	sub, err := client.Subscribe("feed.*")
	if err != nil {
		t.Fatal(err)
	}
	// Ping to make sure the SUB frame was processed before publishing.
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("feed.a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sub.C)
	if m.Subject != "feed.a" || string(m.Data) != "payload" {
		t.Fatalf("got %+v", m)
	}
}

func TestTCPClientToClient(t *testing.T) {
	_, srv := startTestServer(t)
	pubC := dialTest(t, srv)
	subC := dialTest(t, srv)
	sub, err := subC.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := pubC.Publish("x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m := recvOne(t, sub.C)
		if m.Data[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, m.Data[0])
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	_, srv := startTestServer(t)
	pubC := dialTest(t, srv)
	subC := dialTest(t, srv)
	sub, err := subC.Subscribe("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// An 8 MiB payload, the size of a full-resolution OT image.
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := pubC.Publish("big", big); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sub.C)
	if !bytes.Equal(m.Data, big) {
		t.Fatal("large payload corrupted in transit")
	}
}

func TestTCPUnsubscribeStopsDelivery(t *testing.T) {
	b, srv := startTestServer(t)
	client := dialTest(t, srv)
	sub, err := client.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("u", []byte("m")); err != nil {
		t.Fatal(err)
	}
	select {
	case m, ok := <-sub.C:
		if ok {
			t.Fatalf("received %+v after unsubscribe", m)
		}
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTCPSubWithTrailingBytesRefused: a SUB frame with bytes after its
// pattern, which is what a client asking for a queue group sends, is answered
// with an error frame and subscribes nothing; the connection stays usable.
func TestTCPSubWithTrailingBytesRefused(t *testing.T) {
	b, srv := startTestServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sub := fuzzFrame(opSub, append(subPayload(1, "jobs"), u16(len("workers")), []byte("workers"))...)
	if _, err := raw.Write(append(sub, fuzzFrame(opPing)...)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(raw)
	for _, want := range []byte{opErr, opPong} {
		op, payload, _, err := readRelayFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if op != want {
			t.Fatalf("server answered op %d (%q), want %d", op, payload, want)
		}
		if op == opErr && !strings.Contains(string(payload), "after the SUB pattern") {
			t.Fatalf("error frame %q does not name the trailing bytes", payload)
		}
	}
	if b.HasSubscriber("jobs") {
		t.Fatal("a SUB frame with trailing bytes subscribed")
	}
}

func TestTCPServerCloseDisconnectsClients(t *testing.T) {
	b := NewBroker()
	srv, err := Serve(b, "127.0.0.1:0", withServerLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	client := dialTest(t, srv)
	if _, err := client.Subscribe("x"); err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the client to see the server go", func() bool { return !client.IsConnected() })
	if err := client.Ping(time.Second); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Ping after server shutdown = %v, want ErrDisconnected", err)
	}
	if n := b.Stats().Subscriptions; n != 0 {
		t.Fatalf("%d broker subscriptions outlive the server", n)
	}
	b.Close()
}

func TestTCPBadSubjectReportedViaErrFrame(t *testing.T) {
	_, srv := startTestServer(t)
	client := dialTest(t, srv)
	// Wildcards are invalid in publish subjects; the server answers with
	// an error frame, which surfaces on the next client operation.
	if err := client.Publish("a.*", []byte("x")); !errors.Is(err, ErrBadSubject) {
		t.Fatalf("Publish(bad subject) = %v, want client-side ErrBadSubject", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	b, srv := startTestServer(t)
	collector, err := b.Subscribe("c.>", WithSubBuffer(100000))
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 6, 300
	var wg sync.WaitGroup
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := DialReconnect(srv.Addr())
			if err != nil {
				t.Errorf("DialReconnect error = %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < each; i++ {
				if err := c.Publish(fmt.Sprintf("c.p%d", p), []byte("m")); err != nil {
					t.Errorf("Publish error = %v", err)
					return
				}
			}
			if err := c.Ping(10 * time.Second); err != nil {
				t.Errorf("Ping error = %v", err)
			}
		}(p)
	}
	wg.Wait()
	got := 0
	timeout := time.After(10 * time.Second)
	for got < clients*each {
		select {
		case <-collector.C:
			got++
		case <-timeout:
			t.Fatalf("received %d, want %d", got, clients*each)
		}
	}
}

// TestTCPLargeFrameSharedByTwoSubscribers pins the frame-ownership rule
// (see Message): the broker hands one frame buffer, uncopied, to every
// subscriber's forwarder, the publisher owns its buffer again as soon as
// PublishMsg returns, and each client hands its own frame buffer to the
// consumer. Four frames of 8 MB go to two TCP subscribers and a local one
// while the publisher scribbles over its buffer between publishes; every
// copy must arrive intact. Run under -race this also proves no hop writes
// to a shared frame.
func TestTCPLargeFrameSharedByTwoSubscribers(t *testing.T) {
	b, srv := startTestServer(t)
	const frames, size = 4, 8 << 20
	local, err := b.Subscribe("img", WithSubBuffer(frames))
	if err != nil {
		t.Fatal(err)
	}
	var subs []*ReconnectSub
	for i := 0; i < 2; i++ {
		c := dialTest(t, srv)
		sub, err := c.Subscribe("img", WithSubBuffer(frames))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	fill := func(buf []byte, frame int) {
		for i := range buf {
			buf[i] = byte(i*7 + frame)
		}
	}

	pubC := dialTest(t, srv)
	buf := make([]byte, size)
	for frame := 0; frame < frames; frame++ {
		fill(buf, frame)
		if err := pubC.PublishMsg(Message{Subject: "img", Data: buf}); err != nil {
			t.Fatal(err)
		}
		clear(buf) // the publisher's buffer is its own again
	}

	want := make([]byte, size)
	for frame := 0; frame < frames; frame++ {
		fill(want, frame)
		for i, sub := range subs {
			if m := recvOne(t, sub.C); !bytes.Equal(m.Data, want) {
				t.Fatalf("tcp subscriber %d: frame %d arrived damaged", i, frame)
			}
		}
		if m := recvOne(t, local.C); !bytes.Equal(m.Data, want) {
			t.Fatalf("local subscriber: frame %d arrived damaged", frame)
		}
	}
}

// TestOversizeDeliverKeepsSubscriber: a publish that fits a frame but whose
// deliver frame, 16 bytes longer, does not is refused by the client before
// it is written, and by the server when a peer writes it anyway. Either way
// the broker never takes it, so no TCP subscriber's forwarder fails on it
// and drops its subscription: the next publish still arrives.
func TestOversizeDeliverKeepsSubscriber(t *testing.T) {
	b, srv := startTestServer(t)
	subC := dialTest(t, srv)
	sub, err := subC.Subscribe("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A publish frame of exactly maxFrameSize: op, two lengths, the subject.
	data := make([]byte, maxFrameSize-(1+2+len("big")+2))

	pub := dialTest(t, srv)
	if err := pub.Publish("big", data); err == nil {
		t.Fatal("client accepted a publish whose deliver frame exceeds maxFrameSize")
	}
	// Bypass the client's check: the server must answer with an error
	// frame (the client closes on it) and publish nothing.
	raw := dialLink(t, srv.Addr(), defaultFlushInterval)
	if err := raw.cw.writeMsg(opPub, 0, 0, "", "big", "", data); err != nil {
		t.Fatal(err)
	}
	if err := raw.cw.flush(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the server's error frame", raw.isClosed)
	if !b.HasSubscriber("big") {
		t.Fatal("the oversize publish dropped the TCP subscription")
	}

	if err := pub.Publish("big", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, sub.C); string(m.Data) != "small" {
		t.Fatalf("got %d bytes, want the small publish", len(m.Data))
	}
}

// TestOversizeInProcessPublishKeepsTCPSubscriber: an in-process publish
// whose deliver frame exceeds maxFrameSize cannot be forwarded. The server
// drops that one delivery and keeps the TCP subscription.
func TestOversizeInProcessPublishKeepsTCPSubscriber(t *testing.T) {
	b, srv := startTestServer(t)
	subC := dialTest(t, srv)
	sub, err := subC.Subscribe("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("big", make([]byte, maxFrameSize)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("big", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, sub.C); string(m.Data) != "small" {
		t.Fatalf("got %d bytes, want the small publish", len(m.Data))
	}
	if !b.HasSubscriber("big") {
		t.Fatal("the oversize delivery dropped the TCP subscription")
	}
}
