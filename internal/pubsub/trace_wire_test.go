package pubsub

import (
	"testing"
	"time"

	"strata/internal/telemetry"
)

// waitMsg receives one message from ch or fails the test.
func waitMsg(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

// TestTraceparentAcrossWire publishes a traced message through the full TCP
// path — client frame (opPubT), broker, server forwarding (opMsgT) — and
// checks the trace context arrives intact at a remote subscriber.
func TestTraceparentAcrossWire(t *testing.T) {
	broker := NewBroker()
	defer broker.Close()
	srv, err := Serve(broker, "127.0.0.1:0", withServerLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pubConn, err := DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pubConn.Close()
	subConn, err := DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()

	sub, err := subConn.Subscribe("traced.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := subConn.Ping(5 * time.Second); err != nil { // subscribe applied
		t.Fatal(err)
	}

	tc, err := telemetry.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	tp := tc.Traceparent()
	if err := pubConn.PublishMsg(Message{
		Subject:     "traced.alpha",
		Reply:       "traced.reply",
		Data:        []byte("payload"),
		Traceparent: tp,
	}); err != nil {
		t.Fatal(err)
	}

	got := waitMsg(t, sub.C)
	if got.Subject != "traced.alpha" || got.Reply != "traced.reply" || string(got.Data) != "payload" {
		t.Fatalf("message = %+v", got)
	}
	if got.Traceparent != tp {
		t.Fatalf("Traceparent = %q, want %q", got.Traceparent, tp)
	}
	if _, err := telemetry.ParseTraceparent(got.Traceparent); err != nil {
		t.Fatalf("delivered traceparent unparseable: %v", err)
	}

	// An untraced publish on the same connections still travels the plain
	// opPub/opMsg path and arrives with no trace context.
	if err := pubConn.Publish("traced.beta", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	got = waitMsg(t, sub.C)
	if got.Subject != "traced.beta" || got.Traceparent != "" {
		t.Fatalf("untraced message = %+v, want empty Traceparent", got)
	}
}

// TestBrokerTraceFragmentOnDelivery checks WithTraceFragments: a traced
// delivery leaves a sealed "deliver" span fragment under the message's trace
// ID in the broker's buffer.
func TestBrokerTraceFragmentOnDelivery(t *testing.T) {
	buf := telemetry.NewTraceBuffer(8)
	broker := NewBroker(WithTraceFragments(buf))
	defer broker.Close()

	sub, err := broker.Subscribe("frag.*")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	root := telemetry.NewTrace(1, "src")
	tc := root.Context()
	if err := broker.PublishMsg(Message{
		Subject:     "frag.a",
		Data:        []byte("x"),
		Traceparent: tc.Traceparent(),
	}); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, sub.C)

	id := root.Snapshot().TraceID
	frags := buf.Find(id)
	if len(frags) != 1 {
		t.Fatalf("broker fragments for %s = %d, want 1", id, len(frags))
	}
	f := frags[0]
	if f.Label != "frag.a" && f.Label != "broker/frag.a" {
		t.Errorf("fragment label = %q, want broker/frag.a", f.Label)
	}
	if f.ParentSpanID != root.Snapshot().SpanID {
		t.Errorf("fragment parent = %q, want publisher span %q", f.ParentSpanID, root.Snapshot().SpanID)
	}
	if !f.Finished || len(f.Spans) != 1 || f.Spans[0].Op != "deliver" {
		t.Errorf("fragment = %+v, want one sealed deliver span", f)
	}

	// An unsampled or absent context leaves no fragment.
	if err := broker.Publish("frag.b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, sub.C)
	if got := buf.Len(); got != 1 {
		t.Errorf("buffer holds %d fragments after untraced publish, want 1", got)
	}
}

// TestReconnectConnBuffersTraceparent cuts the link, publishes a traced
// message into the reconnect buffer, and checks the trace context survives
// the flush after the link is restored.
func TestReconnectConnBuffersTraceparent(t *testing.T) {
	broker := NewBroker()
	defer broker.Close()
	srv, err := Serve(broker, "127.0.0.1:0", withServerLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sub, err := broker.Subscribe("rc.>")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	rc, err := DialReconnect(srv.Addr(),
		WithReconnectWait(10*time.Millisecond, 50*time.Millisecond),
		withPendingLimit(64))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Sever the live conn; the next publish lands in the pending buffer.
	rc.mu.Lock()
	conn := rc.conn
	rc.mu.Unlock()
	conn.Close()

	tc := telemetry.NewTrace(7, "src").Context()
	tp := tc.Traceparent()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := rc.PublishMsg(Message{Subject: "rc.traced", Data: []byte("z"), Traceparent: tp}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("publish into reconnect buffer kept failing")
		}
		time.Sleep(time.Millisecond)
	}

	got := waitMsg(t, sub.C)
	if got.Subject != "rc.traced" || string(got.Data) != "z" {
		t.Fatalf("message = %+v", got)
	}
	if got.Traceparent != tp {
		t.Fatalf("Traceparent after reconnect flush = %q, want %q", got.Traceparent, tp)
	}
}
