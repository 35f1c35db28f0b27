package pubsub

import (
	"bytes"
	"errors"
	"fmt"
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

func dialTest(t *testing.T, srv *Server) *Conn {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial() error = %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
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

func TestTCPQueueGroupAcrossClients(t *testing.T) {
	_, srv := startTestServer(t)
	pubC := dialTest(t, srv)
	var subs []*ClientSub
	for i := 0; i < 3; i++ {
		c := dialTest(t, srv)
		s, err := c.Subscribe("jobs", WithQueue("workers"))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := pubC.Publish("jobs", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every message goes to exactly one member.
	deadline := time.After(5 * time.Second)
	counts := make([]int, len(subs))
	for total := 0; total < n; {
		progressed := false
		for i, s := range subs {
			select {
			case <-s.C:
				counts[i]++
				total++
				progressed = true
			default:
			}
		}
		if !progressed {
			select {
			case <-deadline:
				t.Fatalf("timed out: counts=%v", counts)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("member %d received nothing; counts=%v", i, counts)
		}
	}
}

func TestTCPServerCloseDisconnectsClients(t *testing.T) {
	b := NewBroker()
	srv, err := Serve(b, "127.0.0.1:0", withServerLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("expected closed channel after server shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not close after server shutdown")
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
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("Dial error = %v", err)
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
	var subs []*ClientSub
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
	raw := dialTest(t, srv)
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
