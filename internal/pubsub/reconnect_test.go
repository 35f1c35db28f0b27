package pubsub

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"strata/internal/faultinject"
)

// reconnectHarness wires broker → TCP server → fault-injection proxy →
// ReconnectConn.
type reconnectHarness struct {
	broker *Broker
	srv    *Server
	proxy  *faultinject.Proxy
	rc     *ReconnectConn
}

// slowRedial holds a dropped link down for at least 150ms before the first
// redial, so a test can observe the disconnected state and act in it.
var slowRedial = WithReconnectWait(300*time.Millisecond, 600*time.Millisecond)

func newReconnectHarness(t *testing.T, opts ...ReconnectOption) *reconnectHarness {
	t.Helper()
	h := &reconnectHarness{}
	h.broker = NewBroker()
	srv, err := Serve(h.broker, "127.0.0.1:0", withServerLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	proxy, err := faultinject.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h.proxy = proxy
	all := append([]ReconnectOption{
		WithReconnectWait(5*time.Millisecond, 50*time.Millisecond),
	}, opts...)
	rc, err := DialReconnect(proxy.Addr(), all...)
	if err != nil {
		t.Fatal(err)
	}
	h.rc = rc
	t.Cleanup(func() {
		rc.Close()
		proxy.Close()
		srv.Close()
		h.broker.Close()
	})
	return h
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// disconnected and reconnected are the link states the tests wait for.
func (h *reconnectHarness) disconnected() bool { return !h.rc.IsConnected() }

func (h *reconnectHarness) reconnected() bool { return h.rc.Reconnects() >= 1 }

func waitSignal[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func recvN(t *testing.T, ch <-chan Message, n int, what string) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	for len(out) < n {
		select {
		case m := <-ch:
			out = append(out, m)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: got %d of %d messages", what, len(out), n)
		}
	}
	return out
}

// TestReconnectRestoresSubscriptionsAndFlushesPending is the headline
// fault-injection scenario: the broker link is severed mid-stream; the
// client reconnects with backoff, restores its subscription, and flushes
// every publish buffered during the outage. Nothing acknowledged before the
// cut is lost, and no goroutines leak.
func TestReconnectRestoresSubscriptionsAndFlushesPending(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := newReconnectHarness(t, slowRedial)

	sub, err := h.rc.Subscribe("bld.>")
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip a ping so the SUB frame is server-side before publishing.
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if err := h.rc.Publish("bld.layer", []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pre := recvN(t, sub.C, 5, "pre-disconnect messages")
	for i, m := range pre {
		if want := fmt.Sprintf("pre-%d", i); string(m.Data) != want {
			t.Fatalf("pre message %d = %q, want %q", i, m.Data, want)
		}
	}

	// Cut the link mid-stream and wait until the client has noticed — only
	// then publish, so every message below must ride the pending buffer.
	h.proxy.Sever()
	waitUntil(t, "disconnect", h.disconnected)
	for i := 0; i < 5; i++ {
		if err := h.rc.Publish("bld.layer", []byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("publish while disconnected: %v", err)
		}
	}

	waitUntil(t, "reconnect", h.reconnected)
	post := recvN(t, sub.C, 5, "post-reconnect messages")
	for i, m := range post {
		if want := fmt.Sprintf("post-%d", i); string(m.Data) != want {
			t.Fatalf("post message %d = %q, want %q (flush must preserve order)", i, m.Data, want)
		}
	}

	if got := h.rc.Reconnects(); got != 1 {
		t.Fatalf("Reconnects() = %d, want 1", got)
	}

	// Tear everything down and verify all goroutines (supervisor,
	// heartbeat, forwarders, server loops, proxy relays) wind up.
	if err := h.rc.Close(); err != nil {
		t.Fatal(err)
	}
	h.proxy.Close()
	h.srv.Close()
	h.broker.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+1 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReconnectHeartbeatDetectsBlackhole exercises the failure mode
// heartbeats exist for: the link stays established but passes no traffic.
// The ping timeout must declare it dead and trigger a reconnect.
func TestReconnectHeartbeatDetectsBlackhole(t *testing.T) {
	h := newReconnectHarness(t, withHeartbeat(20*time.Millisecond, 100*time.Millisecond))

	sub, err := h.rc.Subscribe("hb.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	h.proxy.Injector().Blackhole()
	waitUntil(t, "heartbeat-driven reconnect", h.reconnected)

	// The restored subscription still works end-to-end.
	if err := h.rc.Publish("hb.check", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	m := recvN(t, sub.C, 1, "post-blackhole message")[0]
	if string(m.Data) != "alive" {
		t.Fatalf("got %q, want %q", m.Data, "alive")
	}
}

// TestReconnectSurvivesCorruptStream drops bytes on the wire so the framed
// protocol desynchronizes; both ends abandon the connection and the client
// transparently re-establishes it.
func TestReconnectSurvivesCorruptStream(t *testing.T) {
	// Heartbeats matter here: depending on which bytes vanish, the server
	// can end up blocked mid-frame waiting for data that never arrives, and
	// only a missed pong reveals the link is wedged.
	h := newReconnectHarness(t, withHeartbeat(20*time.Millisecond, 100*time.Millisecond))

	sub, err := h.rc.Subscribe("c.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Swallow part of the next frame: its length prefix now lies.
	h.proxy.Injector().DropBytes(3)
	h.rc.Publish("c.x", []byte("mangled in transit"))

	waitUntil(t, "reconnect after corruption", h.reconnected)

	if err := h.rc.Publish("c.x", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	m := recvN(t, sub.C, 1, "post-corruption message")[0]
	if string(m.Data) != "clean" {
		t.Fatalf("got %q, want %q", m.Data, "clean")
	}
}

// TestReconnectSpawnsNoGoroutinePerSubscription: a link delivers straight
// into each subscription's channel, so the client's goroutines do not grow
// with its subscriptions, neither when they are made nor when a reconnect
// restores them. The server is a bare listener that reads and discards, so
// every goroutine past the baseline is the client's.
func TestReconnectSpawnsNoGoroutinePerSubscription(t *testing.T) {
	const subs, slack = 64, 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	links := make(chan net.Conn, 2) // the first link and its replacement
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, nc) }()
			links <- nc
		}
	}()
	rc, err := DialReconnect(ln.Addr().String(), WithReconnectWait(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	first := waitSignal(t, links, "first link")
	base := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base+slack {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines with %d subscriptions, baseline %d", when, runtime.NumGoroutine(), subs, base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	for i := 0; i < subs; i++ {
		if _, err := rc.Subscribe(fmt.Sprintf("g.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	settled("after subscribing")

	first.Close()
	waitUntil(t, "reconnect with every subscription restored", func() bool {
		return rc.Reconnects() == 1 && rc.ActiveSubscriptions() == subs
	})
	defer waitSignal(t, links, "second link").Close()
	settled("after the reconnect")
}

// TestReconnectLinkCloseAbortsParkedDelivery: a link whose read loop is
// parked delivering into a full ReconnectSub (its consumer stopped reading)
// still closes promptly, as the heartbeat closes a link whose pongs sit
// unread behind that delivery, and the subscription carries on over the
// next link.
func TestReconnectLinkCloseAbortsParkedDelivery(t *testing.T) {
	h := newReconnectHarness(t)
	sub, err := h.rc.Subscribe("full.>", WithSubBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.rc.Publish("full.x", []byte("unread")); err != nil {
			t.Fatal(err)
		}
	}
	// Once the second message reaches the socket, the read loop parks on
	// it and a pong behind it goes unread.
	waitUntil(t, "read loop parked", func() bool { return h.rc.Ping(50*time.Millisecond) != nil })
	h.rc.mu.Lock()
	link := h.rc.conn
	h.rc.mu.Unlock()
	closed := make(chan struct{})
	go func() {
		_ = link.Close()
		close(closed)
	}()
	waitSignal(t, closed, "link Close with a delivery parked")

	waitUntil(t, "reconnect", h.reconnected)
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Publish("full.x", []byte("after")); err != nil {
		t.Fatal(err)
	}
	for {
		if m := recvN(t, sub.C, 1, "post-reconnect message")[0]; string(m.Data) == "after" {
			return
		}
	}
}

// publishAsync runs a Publish on its own goroutine, for publishes that are
// expected to park on a full pending buffer.
func publishAsync(rc *ReconnectConn, subject, payload string) <-chan error {
	done := make(chan error, 1)
	go func() { done <- rc.Publish(subject, []byte(payload)) }()
	return done
}

// assertParked fails if a publish started with publishAsync has returned.
// Pending must stay at the cap while it waits: Block drops nothing.
func assertParked(t *testing.T, rc *ReconnectConn, done <-chan error, limit int) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("publish beyond the pending cap returned %v, want it parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := rc.Pending(); got != limit {
		t.Fatalf("Pending() = %d, want %d", got, limit)
	}
}

// TestReconnectPendingOverflowPolicies pins down what a full pending buffer
// does: the publish beyond the cap parks (Block is the only policy), the
// buffered ones are kept, and Close wakes the parked publisher with
// ErrClosed.
func TestReconnectPendingOverflowPolicies(t *testing.T) {
	h := newReconnectHarness(t, withPendingLimit(2))
	h.proxy.Close() // no reconnect possible: publishes stay buffered
	waitUntil(t, "disconnect", h.disconnected)

	for _, payload := range []string{"a", "b"} {
		if err := h.rc.Publish("p.x", []byte(payload)); err != nil {
			t.Fatalf("publish %q: %v", payload, err)
		}
	}
	third := publishAsync(h.rc, "p.x", "c")
	assertParked(t, h.rc, third, 2)

	if err := h.rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := waitSignal(t, third, "parked publish after Close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("parked publish after Close = %v, want ErrClosed", err)
	}
}

// byteCounter is an io.Writer that counts and discards.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// TestFrameSizeBoundary pins where the client draws the frame-size line: a
// publish or deliver frame of exactly maxFrameSize bytes (op byte onward) is
// written whole and one byte more is refused, and a ReconnectConn's check
// before buffering, made here while disconnected, accepts a publish whose
// deliver frame is exactly maxFrameSize and refuses one byte more, for
// traced and untraced publishes alike.
func TestFrameSizeBoundary(t *testing.T) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const subject, reply = "big.frame", "inbox.1"
	// header is the frame length less the data, counted from the layouts in
	// wire.go.
	header := func(op byte) int {
		n := 1 + 2 + len(subject) + 2 + len(reply)
		if op == opMsg || op == opMsgT {
			n += 16
		}
		if op == opPubT || op == opMsgT {
			n += 2 + len(tp)
		}
		return n
	}
	data := make([]byte, maxFrameSize)

	for _, op := range []byte{opPub, opPubT, opMsg, opMsgT} {
		var n byteCounter
		cw := newCorkedWriter(bufio.NewWriter(&n), 0, nil)
		fits := maxFrameSize - header(op)
		if err := cw.writeMsg(op, 1, 1, tp, subject, reply, data[:fits]); err != nil {
			t.Fatalf("op %d: frame of exactly maxFrameSize: %v", op, err)
		}
		if n != maxFrameSize+4 {
			t.Fatalf("op %d: wrote %d bytes, want the length prefix plus maxFrameSize", op, n)
		}
		if err := cw.writeMsg(op, 1, 1, tp, subject, reply, data[:fits+1]); err == nil {
			t.Fatalf("op %d: frame one byte over maxFrameSize was accepted", op)
		}
	}

	h := newReconnectHarness(t)
	h.proxy.Close()
	waitUntil(t, "disconnect", h.disconnected)
	for _, c := range []struct {
		op byte
		tp string
	}{{opMsg, ""}, {opMsgT, tp}} {
		fits := maxFrameSize - header(c.op)
		m := Message{Subject: subject, Reply: reply, Data: data[:fits], Traceparent: c.tp}
		if err := h.rc.PublishMsg(m); err != nil {
			t.Fatalf("traced=%v: publish delivered in exactly maxFrameSize: %v", c.tp != "", err)
		}
		if got := h.rc.Pending(); got != 1 {
			t.Fatalf("traced=%v: Pending() = %d, want 1", c.tp != "", got)
		}
		m.Data = data[:fits+1]
		if err := h.rc.PublishMsg(m); err == nil {
			t.Fatalf("traced=%v: publish delivered one byte over maxFrameSize was buffered", c.tp != "")
		}
		h.rc.mu.Lock()
		h.rc.pending = nil // release the buffered copy
		h.rc.mu.Unlock()
	}
}

// TestRestoreFailureDetachesPartialSubscriptions reproduces a fresh link
// dying mid-restore: a subscription has already been re-attached when the
// pending-publish flush fails, so restore returns an error and redial
// abandons the conn. The next restore must attach the subscription again —
// otherwise its channel would stay open yet silently deliver nothing for the
// rest of the build — and exactly once, so a publish arrives exactly once.
func TestRestoreFailureDetachesPartialSubscriptions(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv, err := Serve(b, "127.0.0.1:0", withServerLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Build the ReconnectConn by hand, with no supervisor: the test plays
	// redial's role so the mid-restore failure is deterministic.
	rc := &ReconnectConn{
		addr: srv.Addr(),
		cfg:  reconnectConfig{pendingLimit: 16},
		subs: make(map[uint64]*ReconnectSub),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	rc.notFull = sync.NewCond(&rc.mu)
	close(rc.done) // no supervisor will close it; lets Close() return
	defer rc.Close()

	sub, err := rc.Subscribe("mid.>") // disconnected: registered, unattached
	if err != nil {
		t.Fatal(err)
	}
	// A pending publish with an invalid subject fails the flush client-side,
	// deterministically, after the subscription was attached — leaving the
	// same partially-restored state as a link that dies mid-restore.
	rc.mu.Lock()
	rc.pending = []Message{{Subject: "poison..subject", Data: []byte("x")}}
	rc.mu.Unlock()

	connA := dialLink(t, srv.Addr(), defaultFlushInterval)
	if err := rc.restore(connA); err == nil {
		t.Fatal("restore should fail on the poisoned flush")
	}
	connA.Close() // redial's failure branch abandons the conn

	rc.mu.Lock()
	requeued := len(rc.pending)
	rc.pending = nil // the condition that failed the flush has passed
	rc.mu.Unlock()
	if requeued == 0 {
		t.Fatal("failed flush should have requeued the unsent publish")
	}

	// The next restore pass (redial's retry) must re-establish the
	// subscription on the fresh link and deliver end-to-end.
	connB := dialLink(t, srv.Addr(), defaultFlushInterval)
	if err := rc.restore(connB); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if err := rc.Ping(2 * time.Second); err != nil { // SUB frame is server-side
		t.Fatal(err)
	}
	if err := rc.Publish("mid.check", []byte("restored")); err != nil {
		t.Fatal(err)
	}
	if m := recvN(t, sub.C, 1, "post-restore message")[0]; string(m.Data) != "restored" {
		t.Fatalf("got %q, want %q", m.Data, "restored")
	}
	select {
	case m := <-sub.C:
		t.Fatalf("second delivery %q of a single publish", m.Data)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestServerReapsIdleConnections covers the server half of liveness: a
// client that sends nothing (not even pings) is disconnected after the idle
// timeout, while a heartbeating client stays up indefinitely.
func TestServerReapsIdleConnections(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv, err := Serve(b, "127.0.0.1:0",
		withServerLogf(func(string, ...any) {}),
		WithIdleTimeout(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Silent client: reaped.
	silent := dialLink(t, srv.Addr(), defaultFlushInterval)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := silent.Ping(100 * time.Millisecond); err != nil {
			break // server cut us off
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never reaped")
		}
		// Pinging resets the idle clock, so back off beyond the timeout.
		time.Sleep(150 * time.Millisecond)
	}

	// Heartbeating client: survives many idle windows.
	rc, err := DialReconnect(srv.Addr(), withHeartbeat(20*time.Millisecond, 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	time.Sleep(300 * time.Millisecond) // 5× the idle timeout
	if !rc.IsConnected() {
		t.Fatal("heartbeating client should stay connected")
	}
	if got := rc.Reconnects(); got != 0 {
		t.Fatalf("heartbeating client reconnected %d times, want 0", got)
	}
}

// TestActiveSubscriptionsReadiness: ActiveSubscriptions counts only
// subscriptions established on the live link — 0 before any Subscribe,
// n after, back to 0 while the link is down, restored after reconnect, and
// decremented by Unsubscribe. It is the readiness probe a consumer runs
// before telling producers to start (see the obs-smoke worker).
func TestActiveSubscriptionsReadiness(t *testing.T) {
	h := newReconnectHarness(t, slowRedial)

	if got := h.rc.ActiveSubscriptions(); got != 0 {
		t.Fatalf("ActiveSubscriptions before subscribing = %d, want 0", got)
	}
	sub, err := h.rc.Subscribe("act.>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.rc.Subscribe("act.other"); err != nil {
		t.Fatal(err)
	}
	if got := h.rc.ActiveSubscriptions(); got != 2 {
		t.Fatalf("ActiveSubscriptions after two subscribes = %d, want 2", got)
	}
	// The dial completes in the kernel before the proxy accepts and tracks
	// the link; a round trip proves it is tracked, so Sever cuts it.
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	h.proxy.Sever()
	waitUntil(t, "disconnect", h.disconnected)
	if got := h.rc.ActiveSubscriptions(); got != 0 {
		t.Errorf("ActiveSubscriptions while disconnected = %d, want 0 (registered, not established)", got)
	}
	waitUntil(t, "reconnect", h.reconnected)
	deadline := time.Now().Add(5 * time.Second)
	for h.rc.ActiveSubscriptions() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveSubscriptions after reconnect = %d, want 2", h.rc.ActiveSubscriptions())
		}
		time.Sleep(time.Millisecond)
	}

	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if got := h.rc.ActiveSubscriptions(); got != 1 {
		t.Errorf("ActiveSubscriptions after Unsubscribe = %d, want 1", got)
	}
}
