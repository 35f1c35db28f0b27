package pubsub

import (
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/telemetry"
)

// Message is one published datum.
//
// Data ownership: the broker never copies Data. One publish hands the same
// backing array to every matching subscriber, so consumers must treat it as
// read-only, and may retain it for as long as they like. An in-process
// publisher gives its slice away with Publish/PublishMsg and must not write
// to it afterwards. A TCP publisher (ReconnectConn) keeps its buffer:
// the bytes are on the wire or copied into the pending ring when PublishMsg
// returns, and the buffer may be reused. On the receiving side of a TCP hop
// Data is the single copy of the hop. The client's read loop reads a
// message's header into a scratch buffer it reuses and the data into an
// allocation of its own, so Data starts at an allocation boundary and the
// message is its only owner. The server's read loop reads a frame of 64 KiB
// or more into a recycled buffer, and recycles it again once every
// forwarder that relays the message to a TCP subscriber has written it. A
// frame also delivered to any other subscription escapes: it is never
// recycled, so the retain-as-long-as-you-like rule above holds for every
// subscriber that can see Data (DESIGN.md §13, "Frame ownership across a
// hop").
type Message struct {
	Subject string
	Data    []byte
	// Reply, when non-empty, is the subject a responder should publish
	// its answer on (set by Request; see Broker.Respond).
	Reply string
	// Seq is the broker-assigned publish sequence number (1-based),
	// totally ordered across all subjects of one broker.
	Seq uint64
	// Traceparent, when non-empty, is the W3C trace context of the traced
	// tuple this message carries (telemetry.TraceContext.Traceparent). It
	// crosses the TCP wire in the opPubT/opMsgT frame header so a sampled
	// trace continues across processes; untraced messages leave it empty.
	Traceparent string

	// frame is the recycled buffer Data aliases, set only on a message the
	// server's read loop publishes and on its forwarder deliveries.
	frame *frame
}

// overflowPolicy selects what a full subscription buffer does with new
// messages.
type overflowPolicy int

const (
	// block makes Publish wait until the subscriber drains (back-pressure,
	// the default). This couples publisher progress to the slowest
	// subscriber, like a bounded in-process queue; slow-consumer eviction
	// bounds the wait (WithSlowConsumerTimeout).
	block overflowPolicy = iota
	// dropNewest discards the incoming message: the request inbox, which
	// wants the first reply only.
	dropNewest
)

// SubOption customizes a subscription.
type SubOption func(*subConfig)

type subConfig struct {
	buffer  int
	policy  overflowPolicy
	forward bool
}

// WithSubBuffer sets the subscription's buffer capacity (default 256): n
// messages on the broker and on a ReconnectConn.
func WithSubBuffer(n int) SubOption {
	return func(c *subConfig) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// withOverflow sets the subscription's overflow policy (default block).
func withOverflow(p overflowPolicy) SubOption {
	return func(c *subConfig) { c.policy = p }
}

// forwarded marks the subscription the server makes for a TCP subscriber:
// its only reader is the forwarder that writes each message to the socket
// and then releases the message's frame.
func forwarded() SubOption {
	return func(c *subConfig) { c.forward = true }
}

// Subscription receives the messages matching its pattern. Read from C;
// call Unsubscribe to stop (C is then closed after in-flight deliveries).
type Subscription struct {
	C <-chan Message

	pattern string
	policy  overflowPolicy
	ch      chan Message
	broker  *Broker
	id      uint64
	stall   time.Duration // broker's slow-consumer timeout at subscribe time
	forward bool          // read by a server forwarder; see forwarded

	mu     sync.Mutex
	closed bool

	dropped atomic.Uint64
}

// Pattern returns the subscription's pattern.
func (s *Subscription) Pattern() string { return s.pattern }

// Dropped returns how many messages this subscription discarded due to its
// overflow policy, or because a server could not forward them on the wire.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// discard drops msg for this subscription: the reference it holds on msg's
// frame ends, and the drop is counted.
func (s *Subscription) discard(msg Message) {
	msg.frame.release()
	s.dropped.Add(1)
	s.broker.droppedTotal.Add(1)
}

// Unsubscribe detaches the subscription from the broker and closes C.
// Unsubscribing twice is a no-op.
func (s *Subscription) Unsubscribe() {
	s.broker.removeSub(s)
}

// deliver places msg in the subscription buffer according to the overflow
// policy. It returns false only when the subscription is closed, or is
// closed while blocked. A delivery that does not end in the buffer drops
// the reference it holds on msg's frame.
func (s *Subscription) deliver(msg Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		msg.frame.release()
		return false
	}
	switch s.policy {
	case dropNewest:
		select {
		case s.ch <- msg:
			return true
		default:
			s.discard(msg)
			return true
		}
	default: // block
		// Hold the lock while blocked: Unsubscribe during a blocked
		// deliver would otherwise close the channel mid-send. The
		// trade-off is that Unsubscribe waits for the send; consumers
		// are expected to drain. (Justified in DESIGN.md, "Static
		// contracts".)
		if s.stall > 0 {
			timer := time.NewTimer(s.stall)
			//lint:ignore locksend the lock is what makes close safe against this send
			select {
			case s.ch <- msg:
				timer.Stop()
				return true
			case <-timer.C:
				// Slow-consumer eviction: this subscriber stalled the
				// publisher for the full timeout, so it forfeits the
				// subscription. Close under s.mu (the lock we hold) and
				// detach from the broker asynchronously — removeSub takes
				// b.mu then s.mu, so calling it inline here would deadlock
				// against a concurrent Publish holding b.mu.
				s.closed = true
				close(s.ch)
				s.broker.evicted.Add(1)
				go s.broker.removeSub(s)
				msg.frame.release()
				return false
			}
		}
		//lint:ignore locksend the lock is what makes close safe against this send
		s.ch <- msg
		return true
	}
}

// Stats summarizes a broker's activity.
type Stats struct {
	Published     uint64
	Delivered     uint64
	Subscriptions int
	// Evicted counts subscriptions force-closed by the slow-consumer
	// timeout.
	Evicted uint64
}

// Broker routes published messages to matching subscriptions. The zero
// value is not usable; create one with NewBroker. Safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	closed bool
	subs   map[uint64]*Subscription
	nextID uint64
	seq    atomic.Uint64

	published    atomic.Uint64
	delivered    atomic.Uint64
	droppedTotal atomic.Uint64
	subjects     subjectCounters

	// stall is the slow-consumer timeout, fixed at construction: see
	// WithSlowConsumerTimeout.
	stall time.Duration

	// traceBuf, when set, collects a delivery span fragment per traced
	// message: see WithTraceFragments.
	traceBuf *telemetry.TraceBuffer

	evicted atomic.Uint64 // subscriptions killed by the slow-consumer timeout
}

// BrokerOption customizes a broker at construction.
type BrokerOption func(*Broker)

// WithSlowConsumerTimeout arms slow-consumer eviction: a subscriber that
// stalls a delivery for longer than d is force-closed (its channel is
// closed, the subscription removed) so one wedged consumer cannot hold every
// publisher hostage forever. Durable consumers that must not lose data
// should read from a LogStore Cursor instead — cursors never stall the
// broker.
func WithSlowConsumerTimeout(d time.Duration) BrokerOption {
	return func(b *Broker) {
		if d > 0 {
			b.stall = d
		}
	}
}

// WithTraceFragments makes the broker record a span fragment in buf for
// every traced message it delivers (one "deliver" span under the message's
// trace ID). With the buffer wired to a /debug/trace endpoint, the broker
// process shows up in merged cross-process timelines between the publisher
// and its subscribers.
func WithTraceFragments(buf *telemetry.TraceBuffer) BrokerOption {
	return func(b *Broker) { b.traceBuf = buf }
}

// NewBroker creates an empty broker.
func NewBroker(opts ...BrokerOption) *Broker {
	b := &Broker{subs: make(map[uint64]*Subscription)}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Subscribe registers interest in pattern and returns the subscription.
func (b *Broker) Subscribe(pattern string, opts ...SubOption) (*Subscription, error) {
	if err := ValidatePattern(pattern); err != nil {
		return nil, err
	}
	cfg := subConfig{buffer: 256}
	for _, o := range opts {
		o(&cfg)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.nextID++
	ch := make(chan Message, cfg.buffer)
	sub := &Subscription{
		C:       ch,
		ch:      ch,
		pattern: pattern,
		policy:  cfg.policy,
		broker:  b,
		id:      b.nextID,
		stall:   b.stall,
		forward: cfg.forward,
	}
	b.subs[sub.id] = sub
	return sub, nil
}

func (b *Broker) removeSub(s *Subscription) {
	b.mu.Lock()
	if _, ok := b.subs[s.id]; !ok {
		b.mu.Unlock()
		return
	}
	delete(b.subs, s.id)
	b.mu.Unlock()

	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
}

// Publish delivers data to every subscription whose pattern matches subject.
// Data is not copied; treat it as immutable after publishing (see Message
// for the ownership rules).
func (b *Broker) Publish(subject string, data []byte) error {
	return b.PublishRequest(subject, "", data)
}

// PublishRequest is Publish with a reply subject attached to the delivered
// messages (the request half of request/reply).
func (b *Broker) PublishRequest(subject, reply string, data []byte) error {
	return b.PublishMsg(Message{Subject: subject, Reply: reply, Data: data})
}

// PublishMsg publishes m (Subject, Data, Reply, and optionally Traceparent;
// Seq is assigned by the broker). It is the full-control publish used by
// trace-propagating connectors; Publish and PublishRequest delegate here.
func (b *Broker) PublishMsg(m Message) error {
	subject := m.Subject
	if err := ValidateSubject(subject); err != nil {
		return err
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	// Collect targets under the read lock, deliver after releasing it
	// (blocking deliveries may park for a while).
	var targets []*Subscription
	for _, s := range b.subs {
		if Match(s.pattern, subject) {
			targets = append(targets, s)
		}
	}
	b.mu.RUnlock()

	msg := m
	msg.Seq = b.seq.Add(1)
	b.published.Add(1)
	deliverStart := time.Now()
	var delivered uint64
	for _, s := range targets {
		// A forwarder's delivery holds the frame until it is written. Any
		// other subscriber may keep Data forever, so the frame escapes and
		// the message it receives carries none.
		d := msg
		if s.forward {
			d.frame.retain()
		} else {
			d.frame.escape()
			d.frame = nil
		}
		if s.deliver(d) {
			delivered++
		}
	}
	b.delivered.Add(delivered)
	b.subjects.record(subject, delivered)
	// A traced message leaves a span fragment in the broker's buffer: the
	// broker hop becomes visible when fragments are merged by trace ID.
	if b.traceBuf != nil && msg.Traceparent != "" {
		if tc, err := telemetry.ParseTraceparent(msg.Traceparent); err == nil {
			fr := telemetry.ContinueTrace(tc, "broker/"+subject)
			fr.Record("deliver", time.Since(deliverStart))
			fr.Finish()
			b.traceBuf.Add(fr)
		}
	}
	return nil
}

// HasSubscriber reports whether a publish on subject would reach anyone right
// now: a subscription whose pattern matches it. It is
// for publishers whose payload is expensive to build — the connector taps skip
// encoding an 8 MB frame nobody listens to. The answer is read from the
// current subscription set on every call, so a subscription whose Subscribe
// has returned is always seen; it does not allocate.
func (b *Broker) HasSubscriber(subject string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, s := range b.subs {
		if Match(s.pattern, subject) {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	n := len(b.subs)
	b.mu.RUnlock()
	return Stats{
		Published:     b.published.Load(),
		Delivered:     b.delivered.Load(),
		Subscriptions: n,
		Evicted:       b.evicted.Load(),
	}
}

// Close unsubscribes everything and marks the broker closed.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[uint64]*Subscription)
	b.mu.Unlock()

	for _, s := range subs {
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
		s.mu.Unlock()
	}
	return nil
}
