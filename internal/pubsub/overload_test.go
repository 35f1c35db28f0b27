package pubsub

import (
	"errors"
	"testing"
	"time"
)

// TestOverloadBreakerStateMachine pins the three-state contract down in isolation:
// threshold trips, cooldown-gated half-open probe, single-probe admission,
// probe failure re-opening, probe success closing.
func TestOverloadBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 40*time.Millisecond)

	if !b.allow() {
		t.Fatal("closed breaker must allow")
	}
	b.failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after 1 of 2 failures state = %v, want closed", got)
	}
	b.failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after threshold failures state = %v, want open", got)
	}
	if b.allow() {
		t.Fatal("open breaker must fast-fail inside the cooldown")
	}
	if got := b.fastFails.Load(); got != 1 {
		t.Fatalf("fastFails = %d, want 1", got)
	}

	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed: breaker must admit the half-open probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("probing state = %v, want half-open", got)
	}
	if b.allow() {
		t.Fatal("second publish during the probe must be rejected")
	}
	b.failure() // probe failed: re-open immediately
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("failed probe state = %v, want open", got)
	}
	if b.allow() {
		t.Fatal("re-opened breaker must fast-fail again")
	}

	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second probe must be admitted")
	}
	b.success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("successful probe state = %v, want closed", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker must allow again")
	}
	if got := b.opened.Load(); got != 2 {
		t.Fatalf("opened = %d, want 2", got)
	}
}

// TestOverloadBreakerProtectsPendingBuffer exercises breaker × bounded pending
// buffer: with the server unreachable, buffering counts as failure, so the
// breaker opens BEFORE the pending buffer overflows — later publishes
// fast-fail with ErrBreakerOpen and the buffer (and its drop counter) stays
// untouched.
func TestOverloadBreakerProtectsPendingBuffer(t *testing.T) {
	h := newReconnectHarness(t,
		WithPendingLimit(2), WithPendingOverflow(DropNewest),
		WithBreaker(2, 10*time.Second))
	h.proxy.Close() // no reconnect possible
	waitSignal(t, h.disconnected, "disconnect")

	if err := h.rc.Publish("br.x", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Publish("br.x", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if st, ok := h.rc.BreakerState(); !ok || st != BreakerOpen {
		t.Fatalf("BreakerState() = %v, %v; want open, true", st, ok)
	}
	// Without the breaker this third publish would hit the overflow policy
	// (ErrPendingOverflow + a drop); with it, the buffer is left alone.
	if err := h.rc.Publish("br.x", []byte("c")); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("publish with open breaker = %v, want ErrBreakerOpen", err)
	}
	if got := h.rc.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	if got := h.rc.PendingDropped(); got != 0 {
		t.Fatalf("PendingDropped() = %d, want 0 (breaker fired before overflow)", got)
	}
}

// TestOverloadBreakerRecoversAfterReconnect drives the full loop: an outage opens
// the breaker, the supervisor redials, and once the cooldown admits a probe
// the first successful publish closes the breaker again.
func TestOverloadBreakerRecoversAfterReconnect(t *testing.T) {
	h := newReconnectHarness(t, WithBreaker(1, 50*time.Millisecond))

	sub, err := h.rc.Subscribe("rec.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	h.proxy.Sever()
	waitSignal(t, h.disconnected, "disconnect")
	if err := h.rc.Publish("rec.x", []byte("buffered")); err != nil {
		t.Fatalf("publish while disconnected: %v", err)
	}
	if st, _ := h.rc.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker after buffering publish = %v, want open", st)
	}

	waitSignal(t, h.reconnected, "reconnect")
	// The buffered publish flushes regardless of the breaker (flush is the
	// supervisor's job, not a caller publish).
	if m := recvN(t, sub.C, 1, "flushed message")[0]; string(m.Data) != "buffered" {
		t.Fatalf("flushed %q, want %q", m.Data, "buffered")
	}

	// New publishes fast-fail until the cooldown admits a probe; the probe
	// rides the restored link and closes the breaker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := h.rc.Publish("rec.x", []byte("probe"))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("publish during recovery = %v, want nil or ErrBreakerOpen", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never admitted a probe after reconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st, _ := h.rc.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
	if m := recvN(t, sub.C, 1, "probe message")[0]; string(m.Data) != "probe" {
		t.Fatalf("probe delivered %q, want %q", m.Data, "probe")
	}
}

// TestOverloadOverflowPoliciesUnderHeartbeatRedial crosses the pending-buffer
// overflow policy with a heartbeat-detected blackhole: the link wedges
// silently, the heartbeat declares it dead, publishes overflow the bounded
// buffer (DropOldest), and the redial flushes exactly the retained suffix.
func TestOverloadOverflowPoliciesUnderHeartbeatRedial(t *testing.T) {
	h := newReconnectHarness(t,
		WithHeartbeat(20*time.Millisecond, 100*time.Millisecond),
		WithReconnectWait(150*time.Millisecond, 300*time.Millisecond),
		WithPendingLimit(2), WithPendingOverflow(DropOldest))

	sub, err := h.rc.Subscribe("ov.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	h.proxy.Injector().Blackhole()
	waitSignal(t, h.disconnected, "heartbeat-driven disconnect")
	// Redial is held off by the backoff floor, so these all hit the buffer.
	for _, payload := range []string{"a", "b", "c"} {
		if err := h.rc.Publish("ov.x", []byte(payload)); err != nil {
			t.Fatalf("publish %q: %v", payload, err)
		}
	}
	if got := h.rc.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	if got := h.rc.PendingDropped(); got != 1 {
		t.Fatalf("PendingDropped() = %d, want 1", got)
	}

	waitSignal(t, h.reconnected, "reconnect after blackhole")
	got := recvN(t, sub.C, 2, "retained suffix")
	if string(got[0].Data) != "b" || string(got[1].Data) != "c" {
		t.Fatalf("flushed %q,%q; want b,c (DropOldest keeps the newest suffix)",
			got[0].Data, got[1].Data)
	}
}

// TestOverloadBrokerSubjectQuota verifies broker-side admission control: once the
// slowest matching subscriber's backlog reaches the quota, publishes are
// rejected at the door with ErrOverQuota, and admitted again after a drain.
func TestOverloadBrokerSubjectQuota(t *testing.T) {
	b := NewBroker(WithSubjectQuota("q.>", 2))
	defer b.Close()

	slow, err := b.Subscribe("q.x", WithSubBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := b.Publish("q.x", []byte{byte(i)}); err != nil {
			t.Fatalf("publish %d under quota: %v", i, err)
		}
	}
	if err := b.Publish("q.x", nil); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("publish at quota = %v, want ErrOverQuota", err)
	}
	// Unrelated subjects are not governed by the quota.
	if err := b.Publish("other.x", nil); err != nil {
		t.Fatalf("publish on unquota'd subject: %v", err)
	}
	// Draining one message re-admits publishes.
	<-slow.C
	if err := b.Publish("q.x", []byte("after drain")); err != nil {
		t.Fatalf("publish after drain: %v", err)
	}
	if got := b.Stats().OverQuota; got != 1 {
		t.Fatalf("Stats().OverQuota = %d, want 1", got)
	}
}

// TestOverloadBrokerSlowConsumerEviction verifies that a Block-policy subscriber
// which stalls a delivery past the timeout is force-closed — freeing the
// publisher — while a draining subscriber on the same subject is untouched.
func TestOverloadBrokerSlowConsumerEviction(t *testing.T) {
	evictedPattern := make(chan string, 1)
	b := NewBroker(
		WithSlowConsumerTimeout(30*time.Millisecond),
		WithSlowConsumerHandler(func(p string) { evictedPattern <- p }))
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
	if got := waitSignal(t, evictedPattern, "slow-consumer handler"); got != "sc.x" {
		t.Fatalf("evicted pattern = %q, want %q", got, "sc.x")
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

// TestOverloadCursorLagAndSkipToLatest covers the durable consumer's self-serve
// shedding: Lag measures the backlog, SkipToLatest jumps it without deleting
// anything from the log.
func TestOverloadCursorLagAndSkipToLatest(t *testing.T) {
	ls, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	for i := 0; i < 5; i++ {
		if _, err := ls.Append("lag.x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := ls.Cursor("lag.x", 0)
	if got := c.Lag(); got != 5 {
		t.Fatalf("Lag() = %d, want 5", got)
	}
	if _, err := c.Next(2); err != nil {
		t.Fatal(err)
	}
	if got := c.Lag(); got != 3 {
		t.Fatalf("Lag() after reading 2 = %d, want 3", got)
	}
	if got := c.SkipToLatest(); got != 3 {
		t.Fatalf("SkipToLatest() = %d, want 3", got)
	}
	if got, want := c.Offset(), uint64(5); got != want {
		t.Fatalf("Offset() = %d, want %d", got, want)
	}
	if got := c.SkipToLatest(); got != 0 {
		t.Fatalf("SkipToLatest() when caught up = %d, want 0", got)
	}
	// Nothing was deleted: a fresh cursor still replays the whole topic.
	if msgs, err := ls.Read("lag.x", 0, -1); err != nil || len(msgs) != 5 {
		t.Fatalf("Read all = %d msgs, %v; want 5, nil", len(msgs), err)
	}
	// New records show up as fresh lag.
	if _, err := ls.Append("lag.x", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if got := c.Lag(); got != 1 {
		t.Fatalf("Lag() after new append = %d, want 1", got)
	}
}
