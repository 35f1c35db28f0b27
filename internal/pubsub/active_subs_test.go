package pubsub

import (
	"testing"
	"time"
)

// TestActiveSubscriptionsMidRestoreWindow pins down the readiness-probe
// contract of ActiveSubscriptions: a subscription attached to a link that is
// not (or is no longer) the installed live connection must not count.
// restore() attaches subscriptions to the incoming link before
// installing it as rc.conn and flushing the corked SUB frames, so during
// that window the wire subscribe may still sit in a userspace buffer; the
// probe reporting >0 there would let a harness declare a worker ready
// before the broker can deliver to it. The test recreates both window
// shapes by hand under rc.mu rather than racing a real restore.
func TestActiveSubscriptionsMidRestoreWindow(t *testing.T) {
	h := newReconnectHarness(t)

	sub, err := h.rc.Subscribe("ready.>")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := h.rc.ActiveSubscriptions(); n != 1 {
		t.Fatalf("established subscription: ActiveSubscriptions = %d, want 1", n)
	}

	// Window shape 1: attached, no conn installed yet (mid-restore).
	h.rc.mu.Lock()
	live := h.rc.conn
	h.rc.conn = nil
	h.rc.mu.Unlock()
	if n := h.rc.ActiveSubscriptions(); n != 0 {
		t.Fatalf("mid-restore (no installed conn): ActiveSubscriptions = %d, want 0", n)
	}

	// Window shape 2: a different conn installed than the one the
	// subscription was attached to (link abandoned mid-restore).
	other := dialLink(t, h.proxy.Addr(), defaultFlushInterval)
	h.rc.mu.Lock()
	h.rc.conn = other
	h.rc.mu.Unlock()
	if n := h.rc.ActiveSubscriptions(); n != 0 {
		t.Fatalf("attached to a foreign conn: ActiveSubscriptions = %d, want 0", n)
	}

	// Reinstall the real link: the subscription counts again.
	h.rc.mu.Lock()
	h.rc.conn = live
	h.rc.mu.Unlock()
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if n := h.rc.ActiveSubscriptions(); n != 1 {
		t.Fatalf("reinstalled conn: ActiveSubscriptions = %d, want 1", n)
	}
}
