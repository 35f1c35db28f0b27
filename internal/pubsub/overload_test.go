package pubsub

import (
	"testing"
	"time"
)

// TestOverloadOverflowPoliciesUnderHeartbeatRedial crosses the pending-buffer
// overflow policy (Block) with a heartbeat-detected blackhole: the link
// wedges silently, the heartbeat declares it dead, the publish beyond the
// bounded buffer parks, and the redial delivers all three in order.
func TestOverloadOverflowPoliciesUnderHeartbeatRedial(t *testing.T) {
	h := newReconnectHarness(t,
		withHeartbeat(20*time.Millisecond, 100*time.Millisecond),
		slowRedial,
		withPendingLimit(2))

	sub, err := h.rc.Subscribe("ov.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	h.proxy.Injector().Blackhole()
	waitUntil(t, "heartbeat-driven disconnect", h.disconnected)
	// Redial is held off by the backoff floor (at least 150 ms), so the
	// first two fill the buffer and the third parks.
	for _, payload := range []string{"a", "b"} {
		if err := h.rc.Publish("ov.x", []byte(payload)); err != nil {
			t.Fatalf("publish %q: %v", payload, err)
		}
	}
	third := publishAsync(h.rc, "ov.x", "c")
	assertParked(t, h.rc, third, 2)

	waitUntil(t, "reconnect after blackhole", h.reconnected)
	if err := waitSignal(t, third, "parked publish after redial"); err != nil {
		t.Fatalf("parked publish after redial = %v, want nil", err)
	}
	got := recvN(t, sub.C, 3, "buffered and parked publishes")
	for i, want := range []string{"a", "b", "c"} {
		if string(got[i].Data) != want {
			t.Fatalf("message %d = %q, want %q (Block keeps every publish, in order)", i, got[i].Data, want)
		}
	}
}

// TestOverloadBrokerSlowConsumerEviction verifies that a Block-policy subscriber
// which stalls a delivery past the timeout is force-closed — freeing the
// publisher — while a draining subscriber on the same subject is untouched.
func TestOverloadBrokerSlowConsumerEviction(t *testing.T) {
	b := NewBroker(WithSlowConsumerTimeout(30 * time.Millisecond))
	defer b.Close()

	stalled, err := b.Subscribe("sc.x", WithSubBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := b.Subscribe("sc.x", WithSubBuffer(16))
	if err != nil {
		t.Fatal(err)
	}

	// First publish fills the stalled buffer; the second parks in its Block
	// deliver until the timeout evicts it. The publish itself must return.
	start := time.Now()
	for i := 0; i < 2; i++ {
		if err := b.Publish("sc.x", []byte{byte(i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("publisher was held for %v; eviction should have freed it", elapsed)
	}

	// The stalled subscription's channel ends (after its buffered message).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := <-stalled.C; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted subscription's channel was never closed")
		}
	}
	// The healthy subscriber saw both messages and further publishes flow.
	recvN(t, healthy.C, 2, "healthy subscriber deliveries")
	if err := b.Publish("sc.x", []byte("post")); err != nil {
		t.Fatal(err)
	}
	if m := recvN(t, healthy.C, 1, "post-eviction delivery")[0]; string(m.Data) != "post" {
		t.Fatalf("got %q, want %q", m.Data, "post")
	}
	if got := b.Stats().Evicted; got != 1 {
		t.Fatalf("Stats().Evicted = %d, want 1", got)
	}
	// Broker-side removal runs on its own goroutine (to avoid the b.mu/s.mu
	// lock-order inversion), so poll for it.
	deadline = time.Now().Add(5 * time.Second)
	for b.Stats().Subscriptions != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Stats().Subscriptions = %d, want 1 (stalled one removed)",
				b.Stats().Subscriptions)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
