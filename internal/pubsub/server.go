package pubsub

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/obslog"
)

// Server exposes a Broker over TCP using the wire protocol in wire.go.
// Remote clients (see DialReconnect) publish into and subscribe from the
// same broker as in-process users, so a pipeline can span machines — the
// role Kafka plays in the paper's prototype.
type Server struct {
	broker        *Broker
	ln            net.Listener
	logf          func(format string, args ...any) // obslog "pubsub" at Warn
	idleTimeout   time.Duration
	flushInterval time.Duration // cork on outbound frames; see dial
	// forwardOpts, when set, adds subscription options to the forwarder
	// subscription made for a SUB frame with the given pattern (a test
	// seam: the wire carries no overflow policy or buffer size).
	forwardOpts func(pattern string) []SubOption

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	accepted atomic.Uint64
	reaped   atomic.Uint64
	wstats   flushStats // frame/flush counts aggregated across all connections
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithIdleTimeout makes the server reap connections that send no frame
// (including pings) for d. Paired with client heartbeats it bounds how long
// a dead peer can pin server-side subscriptions and forwarding goroutines;
// set it to a few multiples of the clients' heartbeat interval. 0 (the
// default) disables reaping.
//
// Idleness is judged by inbound frames only: outbound message fan-out does
// not count. Every client must therefore send something within d — a
// DialReconnect client's heartbeat (default every 30s) qualifies; a raw
// peer that only subscribes sends nothing after the SUB frame and is
// reaped as healthy-but-silent.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.idleTimeout = d
		}
	}
}

// Serve starts a TCP listener on addr ("host:port"; ":0" picks a free port)
// bridging remote clients to broker. Close the returned server to stop.
func Serve(broker *Broker, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: listen: %w", err)
	}
	s := &Server{
		broker: broker,
		ln:     ln,
		logf: func(format string, args ...any) {
			obslog.L("pubsub").Warn(fmt.Sprintf(format, args...))
		},
		conns:         make(map[net.Conn]struct{}),
		flushInterval: defaultFlushInterval,
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and disconnects every client.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close() // disconnecting clients; their close errors are noise
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // racing shutdown: drop the straggler
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one client: a read loop decoding frames, plus one
// forwarding goroutine per subscription pumping broker messages back out.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close() // serve loop exit: the link is already finished
	}()

	// Outbound writes are corked: message fan-out buffers frames and the
	// flusher coalesces them into one socket flush per interval, while pong
	// and error frames flush inline. cw.close runs after the forwarding
	// goroutines drain (defer order) so their last frames still flush.
	cw := newCorkedWriter(bufio.NewWriterSize(conn, 1<<16), s.flushInterval, &s.wstats)
	defer cw.close()

	var (
		subsMu sync.Mutex
		subs   = make(map[uint64]*Subscription)
		fwdWG  sync.WaitGroup
	)
	defer func() {
		subsMu.Lock()
		for _, sub := range subs {
			sub.Unsubscribe()
		}
		subs = nil
		subsMu.Unlock()
		fwdWG.Wait()
	}()

	sendErr := func(err error) {
		if e := cw.writeNow(opErr, []byte(err.Error())); e != nil {
			s.logf("pubsub server: send error frame: %v", e)
		}
	}

	// The read loop holds one reference on each pooled frame it reads until
	// the frame is handled: by then every delivery that needs the bytes
	// holds its own. The next iteration or the return drops it.
	r := bufio.NewReaderSize(conn, 1<<16)
	home := make(chan *frame, 2) // this connection's recycled relay buffers; see frame
	var fr *frame
	defer func() { fr.release() }()
	for {
		fr.release()
		fr = nil
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		op, payload, next, err := readRelayFrame(r, home)
		fr = next
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.reaped.Add(1)
				s.logf("pubsub server: reaping idle connection %v (no frame in %v)", conn.RemoteAddr(), s.idleTimeout)
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("pubsub server: read: %v", err)
			}
			return
		}
		switch op {
		case opPub, opPubT:
			c := cursor{b: payload}
			var tp []byte
			if op == opPubT {
				tp = c.str()
			}
			subj, reply := c.str(), c.str()
			data := c.rest()
			if c.err != nil {
				sendErr(c.err)
				return
			}
			// No copy: Data aliases the frame, and a pooled frame rides along
			// so each forwarding delivery can hold it (Broker.PublishMsg).
			m := Message{Subject: string(subj), Reply: string(reply), Data: data, Traceparent: string(tp), frame: fr}
			if err := checkPublishSize(&m); err != nil {
				sendErr(err)
			} else if err := s.broker.PublishMsg(m); err != nil {
				sendErr(err)
			}
		case opSub:
			c := cursor{b: payload}
			sid := c.u64()
			pat := c.str()
			if c.err != nil {
				sendErr(c.err)
				return
			}
			// Bytes after the pattern are a field this server does not
			// know (an older client's queue group): refuse the subscription
			// rather than silently join as a plain subscriber.
			if extra := len(c.rest()); extra > 0 {
				sendErr(fmt.Errorf("pubsub: %d unknown bytes after the SUB pattern", extra))
				continue
			}
			opts := []SubOption{forwarded()}
			if s.forwardOpts != nil {
				opts = append(opts, s.forwardOpts(string(pat))...)
			}
			sub, err := s.broker.Subscribe(string(pat), opts...)
			if err != nil {
				sendErr(err)
				continue
			}
			subsMu.Lock()
			if subs == nil { // connection tearing down
				subsMu.Unlock()
				sub.Unsubscribe()
				return
			}
			subs[sid] = sub
			subsMu.Unlock()
			fwdWG.Add(1)
			go func(sid uint64, sub *Subscription) {
				defer fwdWG.Done()
				for msg := range sub.C {
					// A delivery too large for the wire (an in-process
					// publish: TCP publishes are checked on arrival) is
					// dropped for this subscriber, which stays subscribed.
					if checkPublishSize(&msg) != nil {
						sub.discard(msg)
						continue
					}
					// Traced messages ride opMsgT so the subscriber's
					// process can continue the span. Both variants go
					// through the zero-allocation frame path.
					err := cw.writeMsg(msgOp(msg.Traceparent), sid, msg.Seq, msg.Traceparent, msg.Subject, msg.Reply, msg.Data)
					// Written or copied into the bufio buffer either way:
					// the delivery's reference ends here.
					msg.frame.release()
					if err != nil {
						sub.Unsubscribe()
						for msg := range sub.C { // closed now; drop what is left
							msg.frame.release()
						}
						return
					}
				}
			}(sid, sub)
		case opUnsub:
			c := cursor{b: payload}
			sid := c.u64()
			if c.err != nil {
				sendErr(c.err)
				return
			}
			subsMu.Lock()
			sub := subs[sid]
			delete(subs, sid)
			subsMu.Unlock()
			if sub != nil {
				sub.Unsubscribe()
			}
		case opPing:
			// Pong flushes inline: Ping doubles as a round-trip barrier, so
			// any corked message frames written earlier go with it.
			if err := cw.writeNow(opPong); err != nil {
				return
			}
		default:
			sendErr(fmt.Errorf("pubsub: unknown op %d", op))
			return
		}
	}
}
