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

// link is one TCP connection of a ReconnectConn to a pubsub Server: the
// corked writer for outbound frames and the read loop that delivers inbound
// messages straight into each subscription's end. Safe for concurrent use.
type link struct {
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

// subEnd is the consumer end of a ReconnectSub: the channel every link's
// read loop delivers into and the consumer reads, so a message crosses one
// channel between the socket and its consumer. The end outlives its links.
type subEnd struct {
	C <-chan Message

	ch chan Message

	// Shutdown protocol: quit unblocks an in-flight delivery, then dead is
	// set and ch closed under sendMu so the dispatcher can never send on a
	// closed channel.
	quit   chan struct{}
	sendMu sync.Mutex
	dead   bool
	once   sync.Once
}

// init makes the end's channel, WithSubBuffer deep (default 256); the other
// options are the broker's.
func (s *subEnd) init(opts []SubOption) {
	cfg := subConfig{buffer: 256}
	for _, o := range opts {
		o(&cfg)
	}
	s.ch = make(chan Message, cfg.buffer)
	s.C = s.ch
	s.quit = make(chan struct{})
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

// dial connects a link to the pubsub server at addr. Publish frames are
// corked: buffered and flushed at most once per flushInterval under
// sustained load (an idle link still flushes immediately; 0 flushes every
// frame on write), so a publish burst costs one syscall per interval instead
// of one per message. Control frames (subscribe, unsubscribe, ping) always
// flush inline, as does Close.
func dial(addr string, flushInterval time.Duration) (*link, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial: %w", err)
	}
	return newLink(nc, flushInterval), nil
}

// newLink runs the client protocol over nc.
func newLink(nc net.Conn, flushInterval time.Duration) *link {
	c := &link{
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
func (c *link) send(op byte, payload ...[]byte) error {
	return c.sendWith(c.cw.writeNow, op, payload...)
}

func (c *link) sendWith(write func(byte, ...[]byte) error, op byte, payload ...[]byte) error {
	// Check closed under c.mu before touching the writer: teardown closes
	// the underlying conn, and racing a write against that close would
	// surface as a confusing network error instead of ErrClosed.
	if c.isClosed() {
		return ErrClosed
	}
	return c.closedErr(write(op, payload...))
}

func (c *link) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// closedErr normalizes a write error to ErrClosed when the conn was torn
// down mid-write, so callers see one error for "connection gone".
func (c *link) closedErr(err error) error {
	if err != nil && c.isClosed() {
		return ErrClosed
	}
	return err
}

// PublishMsg publishes m.Data under m.Subject with m.Reply attached. When
// m.Traceparent is set the frame goes out as opPubT, carrying the trace
// context to the server; otherwise as opPub. m.Data is written out before
// PublishMsg returns and may be reused by the caller afterwards.
func (c *link) PublishMsg(m Message) error {
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

// attach registers end under a fresh sid and writes the SUB frame, either
// flushed inline (flushNow) or left corked so a caller restoring many
// subscriptions can batch them and flush once.
func (c *link) attach(end *subEnd, pattern string, flushNow bool) (uint64, error) {
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
		u16(len(pattern)), []byte(pattern))
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
func (c *link) unsubscribe(sid uint64) error {
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
func (c *link) Ping(timeout time.Duration) error {
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

func (c *link) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClosed
}

// Close tears down the link. The ends it delivered into stay open: their
// subscriptions move to the ReconnectConn's next link.
func (c *link) Close() error {
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
func (c *link) readLoop() {
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

// markClosed marks c closed and drops every registration, reporting false
// if c was closed already.
func (c *link) markClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	c.subs = nil
	return true
}

// teardown records the first read error and closes the link.
func (c *link) teardown(err error) {
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
