package pubsub

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/obslog"
)

// ErrBreakerOpen is returned by Publish on a ReconnectConn whose circuit
// breaker is open: the link has failed repeatedly and the breaker is
// fast-failing publishes — without buffering them — until a cooldown probe
// succeeds. Callers get an immediate, cheap error instead of feeding a
// pending buffer that will overflow anyway.
var ErrBreakerOpen = errors.New("pubsub: circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: traffic flows; failures are being counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: publishes fast-fail with ErrBreakerOpen until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe publish is
	// allowed through. Its success closes the breaker, its failure re-opens
	// it for another cooldown.
	BreakerHalfOpen
)

// String names the state for logs and metric labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is the classic three-state circuit breaker, specialized for
// publish outcomes: threshold consecutive failures trip it, cooldown gates
// the half-open probe. Safe for concurrent use.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	opened    atomic.Uint64 // transitions into Open
	fastFails atomic.Uint64 // publishes rejected while open
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// logTransition records a state change, outside the breaker's lock. Every
// transition is a flight-recorder event: an Open breaker explains a burst of
// fast-failed publishes in a postmortem dump.
func logTransition(s BreakerState) {
	l := obslog.L("pubsub")
	if s == BreakerOpen {
		l.Warn("breaker transition", "state", s.String())
	} else {
		l.Info("breaker transition", "state", s.String())
	}
}

// allow reports whether a publish may proceed. While open it rejects until
// the cooldown elapses, then admits a single probe (half-open); concurrent
// publishes during the probe are rejected.
func (b *breaker) allow() bool {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			b.fastFails.Add(1)
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.mu.Unlock()
		logTransition(BreakerHalfOpen)
		return true
	default: // BreakerHalfOpen
		if b.probing {
			b.mu.Unlock()
			b.fastFails.Add(1)
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// success records a publish that reached the server, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.probing = false
	b.failures = 0
	changed := b.state != BreakerClosed
	b.state = BreakerClosed
	b.mu.Unlock()
	if changed {
		logTransition(BreakerClosed)
	}
}

// failure records a publish that could not reach the server. The breaker
// trips after threshold consecutive failures, and immediately when a
// half-open probe fails.
func (b *breaker) failure() {
	b.mu.Lock()
	b.failures++
	trip := b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= b.threshold)
	b.probing = false
	opened := trip && b.state != BreakerOpen
	if opened {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.opened.Add(1)
	}
	b.mu.Unlock()
	if opened {
		logTransition(BreakerOpen)
	}
}

// State returns the breaker's current position (re-evaluating the cooldown
// is left to the next allow, so an open breaker reads Open until a publish
// probes it).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// WithBreaker arms a circuit breaker on the connection: threshold
// consecutive publish failures (dead link at publish time, or pending-buffer
// rejections) open it, after which Publish fast-fails with ErrBreakerOpen —
// nothing is buffered — until a cooldown-gated half-open probe succeeds.
// Use it when the caller has a better fallback than buffering (e.g. the
// stream layer shedding instead of blocking).
func WithBreaker(threshold int, cooldown time.Duration) ReconnectOption {
	return func(c *reconnectConfig) {
		c.breakerThreshold = threshold
		c.breakerCooldown = cooldown
	}
}

// BreakerState returns the breaker's state; ok is false when the conn was
// dialed without WithBreaker.
func (rc *ReconnectConn) BreakerState() (state BreakerState, ok bool) {
	if rc.breaker == nil {
		return BreakerClosed, false
	}
	return rc.breaker.State(), true
}
