package pubsub

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"strata/internal/obslog"
)

// ErrDisconnected is returned by operations that need a live link (e.g.
// Ping) while a ReconnectConn is between connections.
var ErrDisconnected = errors.New("pubsub: disconnected")

const (
	// pendingLimit caps how many publishes a ReconnectConn buffers while
	// disconnected. A publish beyond the cap blocks until the next link
	// flushes the buffer or the conn closes (ErrClosed): nothing is dropped.
	pendingLimit = 1024
	// heartbeatInterval and heartbeatTimeout are the liveness probe: every
	// interval the client pings the server and treats a pong missing for
	// the timeout as a dead link, forcing a reconnect. It is how half-open
	// TCP connections (peer gone, no FIN) are detected.
	heartbeatInterval = 30 * time.Second
	heartbeatTimeout  = 5 * time.Second
)

// reconnectConfig holds the tuning knobs of a ReconnectConn.
type reconnectConfig struct {
	minBackoff   time.Duration
	maxBackoff   time.Duration
	pendingLimit int
	heartbeat    time.Duration
	pingTimeout  time.Duration
}

// ReconnectOption customizes DialReconnect.
type ReconnectOption func(*reconnectConfig)

// WithReconnectWait sets the backoff range between redial attempts: waits
// start near min, double per consecutive failure, and are capped at max,
// with jitter so a fleet of clients does not reconnect in lockstep.
// Defaults: 50ms to 2s.
func WithReconnectWait(min, max time.Duration) ReconnectOption {
	return func(c *reconnectConfig) {
		if min > 0 {
			c.minBackoff = min
		}
		if max >= c.minBackoff {
			c.maxBackoff = max
		}
	}
}

// ReconnectConn is the client connection to a pubsub Server: a self-healing
// link with automatic redial (exponential backoff plus jitter),
// re-subscription of every active subscription after a reconnect, a bounded
// buffer for publishes issued while disconnected, and heartbeat-based
// liveness. It is the client a pipeline that
// must survive an hours-long PBF-LB build should use. Safe for concurrent
// use.
type ReconnectConn struct {
	addr string
	cfg  reconnectConfig

	mu         sync.Mutex
	notFull    *sync.Cond // pending buffer drained / state changed
	conn       *link      // nil while disconnected
	closed     bool
	subs       map[uint64]*ReconnectSub
	nextID     uint64
	pending    []Message // buffered while disconnected, each Data an owned copy
	reconnects uint64
	// hbErr is a heartbeat failure to report on the next disconnect, tagged
	// with the link it was observed on: a heartbeat goroutine can outlive
	// its link by up to pingTimeout, and its stale error must not be blamed
	// for a later, unrelated disconnect.
	hbErr  error
	hbConn *link

	quit chan struct{} // closed by Close
	done chan struct{} // closed when the supervisor exits
}

// ReconnectSub is a durable subscription on a ReconnectConn: its channel C
// stays open across reconnects (the underlying server-side subscription is
// re-established on every new link). Messages published while the link is
// down are not delivered — the broker has no per-subscriber persistence —
// but the subscription itself survives.
type ReconnectSub struct {
	subEnd

	rc      *ReconnectConn
	id      uint64
	pattern string

	// link is the conn the subscription's SUB frame last went out on and sid
	// its id there; guarded by rc.mu. restore attaches every subscription
	// whose link is not the incoming conn.
	link *link
	sid  uint64
}

// Pattern returns the subscription's pattern.
func (s *ReconnectSub) Pattern() string { return s.pattern }

// Unsubscribe permanently ends the subscription (it is not restored on
// future reconnects) and closes C. Safe to call twice.
func (s *ReconnectSub) Unsubscribe() error {
	rc := s.rc
	rc.mu.Lock()
	delete(rc.subs, s.id)
	link, sid := s.link, s.sid
	s.link = nil
	rc.mu.Unlock()
	s.shutdown()
	if link == nil {
		return nil
	}
	return link.unsubscribe(sid)
}

// DialReconnect connects to a pubsub server at addr and keeps the
// connection alive: if the link drops, it redials with backoff, restores
// every subscription, and flushes publishes buffered meanwhile. The initial
// dial is synchronous and its failure is returned directly.
func DialReconnect(addr string, opts ...ReconnectOption) (*ReconnectConn, error) {
	cfg := reconnectConfig{
		minBackoff:   50 * time.Millisecond,
		maxBackoff:   2 * time.Second,
		pendingLimit: pendingLimit,
		heartbeat:    heartbeatInterval,
		pingTimeout:  heartbeatTimeout,
	}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := dial(addr, defaultFlushInterval)
	if err != nil {
		return nil, err
	}
	rc := &ReconnectConn{
		addr: addr,
		cfg:  cfg,
		conn: conn,
		subs: make(map[uint64]*ReconnectSub),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	rc.notFull = sync.NewCond(&rc.mu)
	go rc.supervise(conn)
	return rc, nil
}

// IsConnected reports whether a live link currently exists.
func (rc *ReconnectConn) IsConnected() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.conn != nil && !rc.closed
}

// Reconnects returns how many times the conn has successfully reconnected.
func (rc *ReconnectConn) Reconnects() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reconnects
}

// Pending returns how many publishes are currently buffered awaiting a
// reconnect.
func (rc *ReconnectConn) Pending() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.pending)
}

// ActiveSubscriptions returns how many durable subscriptions are currently
// established on the live link (registered subscriptions awaiting a
// reconnect don't count). A subscription counts only once its wire
// subscribe has been sent AND the link it was sent on has been installed as
// the live connection: during a restore, subscriptions are attached to the
// incoming link before its corked SUB frames are flushed, and counting that
// mid-restore window would let a readiness probe declare a consumer ready
// while its subscribe still sits in a userspace buffer. ActiveSubscriptions
// > 0 followed by a Ping round-trip therefore proves the broker is
// delivering to it — the readiness probe a consumer process should run
// before telling producers to start.
func (rc *ReconnectConn) ActiveSubscriptions() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.conn == nil {
		return 0
	}
	n := 0
	for _, s := range rc.subs {
		if s.link == rc.conn {
			n++
		}
	}
	return n
}

// Publish sends data under subject, buffering it if the link is currently
// down (see pendingLimit). The data slice may be reused by the caller
// after Publish returns.
func (rc *ReconnectConn) Publish(subject string, data []byte) error {
	return rc.PublishRequest(subject, "", data)
}

// PublishRequest is Publish with a reply subject attached.
func (rc *ReconnectConn) PublishRequest(subject, reply string, data []byte) error {
	return rc.PublishMsg(Message{Subject: subject, Reply: reply, Data: data})
}

// PublishMsg publishes m, carrying m.Traceparent across the wire (and across
// an outage: a buffered publish keeps its trace context and continues the
// span when flushed after reconnect).
func (rc *ReconnectConn) PublishMsg(m Message) error {
	if err := ValidateSubject(m.Subject); err != nil {
		return err
	}
	// Reject oversized publishes before buffering: a poison message in the
	// pending buffer would wedge every future flush.
	if err := checkPublishSize(&m); err != nil {
		return err
	}
	rc.mu.Lock()
	for {
		if rc.closed {
			rc.mu.Unlock()
			return ErrClosed
		}
		if conn := rc.conn; conn != nil {
			rc.mu.Unlock()
			if err := conn.PublishMsg(m); err == nil {
				return nil
			}
			// The link died mid-publish. Fall through to buffering so the
			// message rides out the outage instead of being lost.
			rc.mu.Lock()
			if rc.conn == conn {
				// The supervisor has not detached the dead conn yet; do it
				// here so this loop cannot spin on a corpse.
				rc.conn = nil
			}
			continue
		}
		// Disconnected: buffer a copy (the caller may reuse data), or park
		// until restore drains a full buffer or Close wakes us.
		if len(rc.pending) < rc.cfg.pendingLimit {
			m.Data = append([]byte(nil), m.Data...)
			rc.pending = append(rc.pending, m)
			rc.mu.Unlock()
			return nil
		}
		rc.notFull.Wait()
	}
}

// Subscribe registers a durable subscription: it is established on the
// current link (or on the next one, if currently disconnected) and
// re-established automatically after every reconnect.
func (rc *ReconnectConn) Subscribe(pattern string, opts ...SubOption) (*ReconnectSub, error) {
	if err := ValidatePattern(pattern); err != nil {
		return nil, err
	}
	s := &ReconnectSub{rc: rc, pattern: pattern}
	s.init(opts)
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil, ErrClosed
	}
	rc.nextID++
	s.id = rc.nextID
	rc.subs[s.id] = s
	conn := rc.conn
	rc.mu.Unlock()

	if conn != nil {
		// A failure leaves s unattached for the next restore to pick up.
		_ = rc.attach(conn, s, false)
	}
	return s, nil
}

// attach subscribes s on conn, delivering straight into s's end, and records
// conn as s's link. Subscribe attaches to the installed link and flushes the
// SUB frame inline; restore attaches to a link not yet installed (rc.conn is
// nil) and leaves the frame corked for its one flush. The wire subscription
// is withdrawn if s was unsubscribed meanwhile, the installed link is no
// longer the expected one, or s is already attached to conn.
func (rc *ReconnectConn) attach(conn *link, s *ReconnectSub, restoring bool) error {
	sid, err := conn.attach(&s.subEnd, s.pattern, !restoring)
	if err != nil {
		return err
	}
	want := conn
	if restoring {
		want = nil
	}
	rc.mu.Lock()
	_, active := rc.subs[s.id]
	if !active || rc.conn != want || s.link == conn {
		rc.mu.Unlock()
		_ = conn.unsubscribe(sid) // fails only when the link is gone, and the wire subscription with it
		return nil
	}
	s.link, s.sid = conn, sid
	rc.mu.Unlock()
	return nil
}

// Ping round-trips a ping on the current link.
func (rc *ReconnectConn) Ping(timeout time.Duration) error {
	rc.mu.Lock()
	conn := rc.conn
	closed := rc.closed
	rc.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if conn == nil {
		return ErrDisconnected
	}
	return conn.Ping(timeout)
}

// Close permanently tears down the conn: the supervisor stops, every
// subscription channel closes, and buffered publishes are discarded.
func (rc *ReconnectConn) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return ErrClosed
	}
	rc.closed = true
	conn := rc.conn
	rc.conn = nil
	subs := make([]*ReconnectSub, 0, len(rc.subs))
	for _, s := range rc.subs {
		subs = append(subs, s)
	}
	rc.subs = make(map[uint64]*ReconnectSub)
	rc.pending = nil
	rc.notFull.Broadcast()
	rc.mu.Unlock()

	close(rc.quit)
	if conn != nil {
		_ = conn.Close() // tearing down; a dead link closing dirty is fine
	}
	for _, s := range subs {
		s.shutdown()
	}
	<-rc.done
	return nil
}

// supervise owns the connection lifecycle: wait for the live link to drop,
// then redial-with-backoff, restore subscriptions, flush pending publishes,
// and go back to waiting. It exits when the conn is closed.
func (rc *ReconnectConn) supervise(conn *link) {
	defer close(rc.done)
	for {
		rc.startHeartbeat(conn)
		select {
		case <-conn.done: // link dropped
		case <-rc.quit: // Close()
			return
		}
		err := conn.err()
		_ = conn.Close() // release resources; already torn down, best-effort

		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			return
		}
		if rc.hbErr != nil && rc.hbConn == conn {
			err = rc.hbErr
		}
		rc.hbErr, rc.hbConn = nil, nil
		rc.conn = nil
		rc.mu.Unlock()
		obslog.L("pubsub").Warn("link down", "addr", rc.addr, "error", fmt.Sprint(err))

		next, ok := rc.redial()
		if !ok {
			return
		}
		conn = next
		rc.mu.Lock()
		rc.reconnects++
		n := rc.reconnects
		pending := len(rc.pending)
		rc.mu.Unlock()
		obslog.L("pubsub").Info("reconnected", "addr", rc.addr, "reconnects", n, "pending", pending)
	}
}

// redial dials with exponential backoff and jitter until a link is up and
// fully restored, or the conn is closed.
func (rc *ReconnectConn) redial() (*link, bool) {
	for attempt := 0; ; attempt++ {
		select {
		case <-time.After(rc.backoff(attempt)):
		case <-rc.quit:
			return nil, false
		}
		conn, err := dial(rc.addr, defaultFlushInterval)
		if err != nil {
			continue
		}
		switch err := rc.restore(conn); {
		case err == nil:
			return conn, true
		case errors.Is(err, ErrClosed):
			_ = conn.Close() // conn was never installed; nothing depends on it
			return nil, false
		default:
			// The fresh link died during restore; count it as a failed
			// attempt and keep dialing.
			_ = conn.Close()
		}
	}
}

// restore re-establishes every registered subscription on conn and flushes
// the pending-publish buffer, then installs conn as the live link. It loops
// until every subscription is attached to conn and no pending publishes
// remain, so Subscribe/Publish calls racing the restore are not stranded. A
// failed restore leaves its subscriptions attached to a conn that is never
// installed, so the next restore attaches them again.
func (rc *ReconnectConn) restore(conn *link) error {
	for {
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			return ErrClosed
		}
		var todo []*ReconnectSub
		for _, s := range rc.subs {
			if s.link != conn {
				todo = append(todo, s)
			}
		}
		if len(todo) == 0 && len(rc.pending) == 0 {
			rc.conn = conn
			rc.notFull.Broadcast()
			rc.mu.Unlock()
			return nil
		}
		batch := rc.pending
		rc.pending = nil
		rc.mu.Unlock()

		// Re-subscribes go through the corked writer: each SUB frame is
		// buffered, and one flush below pushes the whole batch in a single
		// syscall — a client with hundreds of subscriptions restores its
		// state in one write instead of one flush per subscription.
		for _, s := range todo {
			if err := rc.attach(conn, s, true); err != nil {
				rc.requeue(batch, 0)
				return err
			}
		}
		for i, pb := range batch {
			if err := conn.PublishMsg(pb); err != nil {
				rc.requeue(batch, i)
				return err
			}
		}
		// One flush covers the batched SUB frames and any corked publishes.
		// On error the whole batch is requeued: some frames may already have
		// reached the wire (the background flusher runs concurrently), which
		// mirrors the old per-frame path where a flushed-to-kernel frame's
		// fate was equally unknown when the link died.
		if err := conn.cw.flush(); err != nil {
			rc.requeue(batch, 0)
			return err
		}
	}
}

// requeue puts the unflushed tail of batch back at the front of the pending
// buffer, preserving publish order for the next restore.
func (rc *ReconnectConn) requeue(batch []Message, from int) {
	if from >= len(batch) {
		return
	}
	rc.mu.Lock()
	merged := make([]Message, 0, len(batch)-from+len(rc.pending))
	merged = append(merged, batch[from:]...)
	merged = append(merged, rc.pending...)
	rc.pending = merged
	rc.mu.Unlock()
}

// startHeartbeat probes conn's liveness every cfg.heartbeat: a ping whose
// pong does not arrive within cfg.pingTimeout closes the link, which the
// supervisor observes as a disconnect and repairs. Detects half-open
// connections that TCP alone would keep "established" for hours.
func (rc *ReconnectConn) startHeartbeat(conn *link) {
	go func() {
		t := time.NewTicker(rc.cfg.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := conn.Ping(rc.cfg.pingTimeout); err != nil {
					rc.mu.Lock()
					rc.hbErr = fmt.Errorf("pubsub: heartbeat failed: %w", err)
					rc.hbConn = conn
					rc.mu.Unlock()
					_ = conn.Close() // deliberately killing a link that failed its ping
					return
				}
			case <-conn.done:
				return
			case <-rc.quit:
				return
			}
		}
	}()
}

// backoff returns the wait before redial attempt n: exponential from
// minBackoff, capped at maxBackoff, with jitter over the upper half of the
// interval so independent clients spread out.
func (rc *ReconnectConn) backoff(attempt int) time.Duration {
	d := rc.cfg.maxBackoff
	if attempt < 30 {
		if exp := rc.cfg.minBackoff << uint(attempt); exp < d {
			d = exp
		}
	}
	if d <= 1 {
		return d
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}
