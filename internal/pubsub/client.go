package pubsub

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Conn is a client connection to a pubsub Server. Safe for concurrent use.
type Conn struct {
	conn net.Conn

	cw     *corkedWriter
	wstats flushStats

	mu      sync.Mutex
	closed  bool
	subs    map[uint64]*subEnd
	nextSID uint64
	pongCh  chan struct{}
	readErr error
	quit    chan struct{} // closed by Close: aborts a delivery blocked on a full end
	done    chan struct{}
}

// subEnd is the consumer end of a client subscription: the channel the read
// loop delivers into and the consumer reads. A Conn's own subscriptions
// (ClientSub) and a ReconnectConn's durable ones (ReconnectSub) both embed
// it, so a message crosses one channel between the socket and its consumer.
type subEnd struct {
	C <-chan Message

	ch chan Message
	// owner is the link that created the end and closes it when the link
	// ends; nil for a ReconnectSub's end, which outlives its links.
	owner *Conn

	// Shutdown protocol: quit unblocks an in-flight delivery, then dead is
	// set and ch closed under sendMu so the dispatcher can never send on a
	// closed channel.
	quit   chan struct{}
	sendMu sync.Mutex
	dead   bool
	once   sync.Once
}

// init makes the end's channel, WithSubBuffer deep (default 256), and
// returns the WithQueue group; the other options are the broker's.
func (s *subEnd) init(opts []SubOption) (queue string) {
	cfg := subConfig{buffer: 256}
	for _, o := range opts {
		o(&cfg)
	}
	s.ch = make(chan Message, cfg.buffer)
	s.C = s.ch
	s.quit = make(chan struct{})
	return cfg.queue
}

// shutdown closes the subscription's channels exactly once, aborting any
// delivery blocked on a full buffer first.
func (s *subEnd) shutdown() {
	s.once.Do(func() {
		close(s.quit)
		s.sendMu.Lock()
		s.dead = true
		close(s.ch)
		s.sendMu.Unlock()
	})
}

// deliver hands msg to the consumer, giving up if the subscription shuts
// down, or the delivering link closes, while the buffer is full.
func (s *subEnd) deliver(msg Message, linkQuit <-chan struct{}) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.dead {
		return
	}
	// Holding sendMu across the send is what makes shutdown's close(s.ch)
	// safe; the quit cases (s.quit is closed before shutdown takes sendMu)
	// bound the wait. (Justified in DESIGN.md, "Static contracts".)
	//lint:ignore locksend the lock serializes this send against close; quit bounds it
	select {
	case s.ch <- msg:
	case <-s.quit:
	case <-linkQuit:
	}
}

// ClientSub is a client-side subscription. Read messages from C; C closes
// when the subscription or connection ends.
type ClientSub struct {
	subEnd
	sid uint64
}

// Unsubscribe stops the subscription. Safe to call twice.
func (s *ClientSub) Unsubscribe() error {
	s.shutdown()
	return s.owner.unsubscribe(s.sid)
}

// Dial connects to a pubsub server at addr. Publish frames are corked:
// buffered and flushed at most once per defaultFlushInterval under sustained
// load (an idle connection still flushes immediately), so a publish burst
// costs one syscall per interval instead of one per message. Control frames
// (subscribe, unsubscribe, ping) always flush inline, as does Close.
func Dial(addr string) (*Conn, error) {
	return dial(addr, defaultFlushInterval)
}

// dial is Dial with the cork interval as a parameter (0 flushes every
// frame on write).
func dial(addr string, flushInterval time.Duration) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial: %w", err)
	}
	return newConn(nc, flushInterval), nil
}

// newConn runs the client protocol over nc.
func newConn(nc net.Conn, flushInterval time.Duration) *Conn {
	c := &Conn{
		conn:   nc,
		subs:   make(map[uint64]*subEnd),
		pongCh: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.cw = newCorkedWriter(bufio.NewWriterSize(nc, 1<<16), flushInterval, &c.wstats)
	go c.readLoop()
	return c
}

// send writes a control frame and flushes it before returning.
func (c *Conn) send(op byte, payload ...[]byte) error {
	return c.sendWith(c.cw.writeNow, op, payload...)
}

func (c *Conn) sendWith(write func(byte, ...[]byte) error, op byte, payload ...[]byte) error {
	// Check closed under c.mu before touching the writer: teardown closes
	// the underlying conn, and racing a write against that close would
	// surface as a confusing network error instead of ErrClosed.
	if c.isClosed() {
		return ErrClosed
	}
	return c.closedErr(write(op, payload...))
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// closedErr normalizes a write error to ErrClosed when the conn was torn
// down mid-write, so callers see one error for "connection gone".
func (c *Conn) closedErr(err error) error {
	if err != nil && c.isClosed() {
		return ErrClosed
	}
	return err
}

// Publish sends data under subject. The data slice is written out before
// Publish returns and may be reused by the caller afterwards.
func (c *Conn) Publish(subject string, data []byte) error {
	return c.PublishRequest(subject, "", data)
}

// PublishRequest is Publish with a reply subject attached (the request half
// of request/reply).
func (c *Conn) PublishRequest(subject, reply string, data []byte) error {
	return c.PublishMsg(Message{Subject: subject, Reply: reply, Data: data})
}

// PublishMsg publishes m.Data under m.Subject with m.Reply attached. When
// m.Traceparent is set the frame goes out as opPubT, carrying the trace
// context to the server; otherwise this is exactly PublishRequest.
func (c *Conn) PublishMsg(m Message) error {
	if err := ValidateSubject(m.Subject); err != nil {
		return err
	}
	if err := checkPublishSize(&m); err != nil {
		return err
	}
	if c.isClosed() {
		return ErrClosed
	}
	// The zero-allocation frame path: headers are assembled in the writer's
	// scratch, m.Data goes to the socket buffer directly and is never
	// retained, so callers may reuse it after PublishMsg returns.
	return c.closedErr(c.cw.writeMsg(pubOp(m.Traceparent), 0, 0, m.Traceparent, m.Subject, m.Reply, m.Data))
}

// Subscribe registers a subscription on the server. Only WithSubBuffer and
// WithQueue options apply client-side (overflow is governed by TCP
// back-pressure: if the client does not drain, the server's forwarding
// goroutine blocks on the socket).
func (c *Conn) Subscribe(pattern string, opts ...SubOption) (*ClientSub, error) {
	if err := ValidatePattern(pattern); err != nil {
		return nil, err
	}
	sub := &ClientSub{subEnd: subEnd{owner: c}}
	sid, err := c.attach(&sub.subEnd, pattern, sub.init(opts), true)
	if err != nil {
		return nil, err
	}
	sub.sid = sid
	return sub, nil
}

// attach registers end under a fresh sid and writes the SUB frame, either
// flushed inline (flushNow) or left corked so a caller restoring many
// subscriptions can batch them and flush once.
func (c *Conn) attach(end *subEnd, pattern, queue string, flushNow bool) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	c.nextSID++
	sid := c.nextSID
	c.subs[sid] = end
	c.mu.Unlock()

	write := c.cw.writeNow
	if !flushNow {
		write = c.cw.writeCorked
	}
	err := c.sendWith(write, opSub,
		u64(sid),
		u16(len(pattern)), []byte(pattern),
		u16(len(queue)), []byte(queue))
	if err != nil {
		c.mu.Lock()
		delete(c.subs, sid)
		c.mu.Unlock()
		return 0, err
	}
	return sid, nil
}

// unsubscribe drops sid's registration and withdraws it from the server.
// A closed link has nothing to withdraw: the server side went with it.
func (c *Conn) unsubscribe(sid uint64) error {
	c.mu.Lock()
	_, active := c.subs[sid]
	delete(c.subs, sid)
	closed := c.closed
	c.mu.Unlock()
	if !active || closed {
		return nil
	}
	if err := c.send(opUnsub, u64(sid)); !errors.Is(err, ErrClosed) {
		return err
	}
	return nil
}

// Ping round-trips a ping frame, confirming the connection and that all
// previously sent frames were consumed by the server's read loop.
func (c *Conn) Ping(timeout time.Duration) error {
	if err := c.send(opPing); err != nil {
		return err
	}
	select {
	case <-c.pongCh:
		return nil
	case <-c.done:
		return c.err()
	case <-time.After(timeout):
		return fmt.Errorf("pubsub: ping timeout after %v", timeout)
	}
}

func (c *Conn) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClosed
}

// Close tears down the connection and every subscription.
func (c *Conn) Close() error {
	if !c.markClosed() {
		return ErrClosed
	}
	close(c.quit)
	// Flush corked publishes before closing the socket so nothing written
	// before Close is lost; stops the flusher goroutine too.
	_ = c.cw.close()
	err := c.conn.Close()
	<-c.done // wait for readLoop exit
	return err
}

// readLoop dispatches inbound frames until the connection drops. An opMsg
// or opMsgT header is read into a scratch buffer reused across frames and
// the message's data into an allocation of its own, so Data starts at an
// allocation boundary and holds nothing but the data.
func (c *Conn) readLoop() {
	defer close(c.done)
	fr := frameReader{r: bufio.NewReaderSize(c.conn, 1<<16)}
	for {
		op, err := fr.next()
		if err != nil {
			c.teardown(err)
			return
		}
		switch op {
		case opMsg, opMsgT:
			sid, msg, err := fr.msg(op == opMsgT)
			if err != nil {
				c.teardown(err)
				return
			}
			c.mu.Lock()
			sub := c.subs[sid]
			c.mu.Unlock()
			if sub != nil {
				// The message is Data's only owner. The send blocks:
				// back-pressure propagates to the server through the
				// unread socket.
				sub.deliver(msg, c.quit)
			}
		case opPong:
			if err := fr.skip(); err != nil {
				c.teardown(err)
				return
			}
			select {
			case c.pongCh <- struct{}{}:
			default:
			}
		case opErr:
			text, err := fr.field(fr.left)
			if err != nil {
				c.teardown(err)
				return
			}
			c.teardown(fmt.Errorf("pubsub: server error: %s", text))
			return
		default:
			c.teardown(fmt.Errorf("pubsub: unknown op %d from server", op))
			return
		}
	}
}

// frameReader reads a frame off the client's socket field by field, never
// past the frame's end: left counts the bytes of the current frame not yet
// read.
type frameReader struct {
	r       *bufio.Reader
	left    int
	scratch []byte
}

// next reads the length prefix and op of the next frame.
func (f *frameReader) next() (byte, error) {
	n, err := readFrameLen(f.r)
	if err != nil {
		return 0, err
	}
	op, err := f.r.ReadByte()
	if err != nil {
		return 0, err
	}
	f.left = n - 1
	return op, nil
}

// field reads the frame's next n bytes into the scratch buffer, valid until
// the next call.
func (f *frameReader) field(n int) ([]byte, error) {
	if n > f.left {
		return nil, fmt.Errorf("pubsub: %d-byte field overruns the frame's last %d bytes", n, f.left)
	}
	if cap(f.scratch) < n {
		f.scratch = make([]byte, n)
	}
	b := f.scratch[:n]
	if _, err := io.ReadFull(f.r, b); err != nil {
		return nil, err
	}
	f.left -= n
	return b, nil
}

func (f *frameReader) u64() (uint64, error) {
	b, err := f.field(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// str reads a u16-length-prefixed string.
func (f *frameReader) str() (string, error) {
	b, err := f.field(2)
	if err != nil {
		return "", err
	}
	b, err = f.field(int(binary.LittleEndian.Uint16(b)))
	return string(b), err
}

// skip discards the rest of the frame.
func (f *frameReader) skip() error {
	_, err := f.r.Discard(f.left)
	f.left = 0
	return err
}

// msg reads the rest of an opMsg (or, traced, opMsgT) frame: the header,
// then the data into a buffer of its own.
func (f *frameReader) msg(traced bool) (sid uint64, m Message, err error) {
	if sid, err = f.u64(); err != nil {
		return 0, m, err
	}
	if m.Seq, err = f.u64(); err != nil {
		return 0, m, err
	}
	if traced {
		if m.Traceparent, err = f.str(); err != nil {
			return 0, m, err
		}
	}
	if m.Subject, err = f.str(); err != nil {
		return 0, m, err
	}
	if m.Reply, err = f.str(); err != nil {
		return 0, m, err
	}
	m.Data = make([]byte, f.left)
	if _, err := io.ReadFull(f.r, m.Data); err != nil {
		return 0, m, err
	}
	f.left = 0
	return sid, m, nil
}

// markClosed marks c closed, drops every registration and shuts down the
// ends c created, reporting false if c was closed already. Ends a
// ReconnectConn attached stay open: their subscriptions move to its next
// link.
func (c *Conn) markClosed() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	var owned []*subEnd
	for _, s := range c.subs {
		if s.owner == c {
			owned = append(owned, s)
		}
	}
	c.subs = nil
	c.mu.Unlock()
	for _, s := range owned {
		s.shutdown()
	}
	return true
}

// teardown records the first read error and closes the link's own
// subscriptions so their consumers unblock.
func (c *Conn) teardown(err error) {
	c.mu.Lock()
	if c.readErr == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		c.readErr = err
	}
	c.mu.Unlock()
	if !c.markClosed() {
		return
	}
	// The link is already failed or closing; its close error is noise. Close
	// the socket before stopping the corked writer: the flusher may be
	// blocked mid-flush on a dead peer, and the close unblocks it.
	_ = c.conn.Close()
	_ = c.cw.close()
}
