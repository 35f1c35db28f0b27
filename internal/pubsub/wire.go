package pubsub

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Wire protocol: length-prefixed binary frames over TCP.
//
//	frameLen uint32 (length of op + payload)
//	op       byte
//	payload  op-specific (all integers little endian)
//
//	opPub:   subjLen uint16, subject, replyLen uint16, reply, data...
//	opSub:   sid uint64, patLen uint16, pattern
//	opUnsub: sid uint64
//	opMsg:   sid uint64, seq uint64, subjLen uint16, subject, replyLen uint16, reply, data...
//	opPing/opPong: empty
//	opErr:   utf-8 message
//	opPubT:  tpLen uint16, traceparent, then the opPub layout
//	opMsgT:  sid uint64, seq uint64, tpLen uint16, traceparent, then subject/reply/data as opMsg
//
// opPubT/opMsgT are the trace-carrying variants of opPub/opMsg: a W3C
// traceparent header (telemetry.TraceContext) rides ahead of the regular
// payload, so a span started in the publishing process continues in the
// broker and every subscriber. Untraced messages keep using opPub/opMsg —
// the common path pays nothing, and old peers never see the new ops.
const (
	opPub   byte = 1
	opSub   byte = 2
	opUnsub byte = 3
	opMsg   byte = 4
	opPing  byte = 5
	opPong  byte = 6
	opErr   byte = 7
	opPubT  byte = 8
	opMsgT  byte = 9
)

// maxFrameSize bounds a frame to 64 MiB: comfortably above a full-resolution
// 2000×2000 16-bit OT image (8 MiB) plus headers, but small enough to reject
// garbage lengths from a corrupted stream.
const maxFrameSize = 64 << 20

// msgFrameSize is the length, op byte onward, of the publish or deliver
// frame corkedWriter.writeMsg builds: sid and seq ride only in the opMsg
// variants, the traceparent only in the T variants.
func msgFrameSize(op byte, tp, subject, reply string, data int) int {
	n := 1 + 2 + len(subject) + 2 + len(reply) + data
	if op == opMsg || op == opMsgT {
		n += 8 + 8
	}
	if op == opPubT || op == opMsgT {
		n += 2 + len(tp)
	}
	return n
}

// pubOp is the publish op for a message with traceparent tp: opPubT carries
// trace context, opPub does not.
func pubOp(tp string) byte {
	if tp != "" {
		return opPubT
	}
	return opPub
}

// msgOp is the deliver op for a message with traceparent tp.
func msgOp(tp string) byte {
	if tp != "" {
		return opMsgT
	}
	return opMsg
}

// checkPublishSize bounds a publish by the frame that delivers it, 16 bytes
// longer (sid and seq): a publish whose deliver frame exceeds maxFrameSize
// would reach the broker but fail every TCP subscriber's forwarder, which
// then drops its subscription. The client checks before writing or
// buffering, the server before publishing.
func checkPublishSize(m *Message) error {
	if total := msgFrameSize(msgOp(m.Traceparent), m.Traceparent, m.Subject, m.Reply, len(m.Data)); total > maxFrameSize {
		return fmt.Errorf("pubsub: publish too large (%d-byte deliver frame)", total)
	}
	return nil
}

// writeFrameTo writes one frame into w's buffer without flushing — the write
// phase of a send. The caller serializes access to w and decides when the
// buffered frames hit the socket (see corkedWriter for the flush policy).
func writeFrameTo(w *bufio.Writer, op byte, payload ...[]byte) error {
	total := 1
	for _, p := range payload {
		total += len(p)
	}
	if total > maxFrameSize {
		return fmt.Errorf("pubsub: frame too large (%d bytes)", total)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(total))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range payload {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// readFrameLen reads and checks a frame's length prefix.
func readFrameLen(r *bufio.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrameSize {
		return 0, fmt.Errorf("pubsub: bad frame length %d", n)
	}
	return int(n), nil
}

// relayPoolMin is the smallest frame the broker reads into a pooled buffer:
// the size of its socket reader. A smaller frame is cheaper to allocate than
// to count references to.
const relayPoolMin = 64 << 10

// framePool holds the *frame buffers of relayed messages whose last
// reference was dropped while their connection's home slot was full.
var framePool sync.Pool

// frame is a pooled buffer holding one frame the broker relays, shared by
// every delivery of its message. refs counts the holders: the read loop,
// plus one per delivery into a forwarder's subscription until the forwarder
// has written it. A frame delivered anywhere else is escaped: its Data may
// be retained for as long as the receiver likes, so it is never recycled.
// All methods are no-ops on a nil frame (a small frame, or a message that
// did not arrive over a socket).
type frame struct {
	buf     []byte
	refs    atomic.Int32
	escaped atomic.Bool
	// home is the return slot of the connection that read the frame. The
	// last release usually runs on a forwarder's goroutine, and sync.Pool
	// keeps what one P puts in a slot no other P can take, so recycling
	// through the pool alone misses whenever the read loop runs on another
	// P. serveConn gives home room for two frames: the one being read and
	// the previous one, which a forwarder may still be writing.
	home chan *frame
}

// getFrame returns a frame with room for n bytes and one reference, taken
// from home, the pool, or the heap in that order. A frame from the heap
// comes with a spare of the same size put in home: the next frame can
// arrive before a forwarder has written this one, and without the spare,
// whichever frame first lost that race would allocate the connection's
// second buffer.
func getFrame(home chan *frame, n int) *frame {
	var f *frame
	select {
	case f = <-home:
	default:
		f, _ = framePool.Get().(*frame)
	}
	if f == nil {
		f = new(frame)
		select {
		case home <- &frame{buf: make([]byte, 0, frameCap(n))}:
		default:
		}
	}
	if cap(f.buf) < n {
		f.buf = make([]byte, n, frameCap(n))
	}
	f.buf = f.buf[:n]
	f.home = home
	f.refs.Store(1)
	f.escaped.Store(false)
	return f
}

// frameCap is the capacity a frame buffer for n bytes is allocated with:
// n rounded up past the next multiple of relayPoolMin. Frames of one
// stream differ by a few bytes (a reply subject's counter gains a digit, a
// header value grows), and the headroom lets a buffer take the next,
// slightly longer frame instead of being replaced by one.
func frameCap(n int) int {
	return (n + relayPoolMin) &^ (relayPoolMin - 1)
}

func (f *frame) retain() {
	if f != nil {
		f.refs.Add(1)
	}
}

func (f *frame) escape() {
	if f != nil {
		f.escaped.Store(true)
	}
}

// release drops one reference. The last one returns an unescaped frame to
// its home slot, or to the pool when the slot is full, after which its bytes
// belong to the next frame read.
func (f *frame) release() {
	if f == nil || f.refs.Add(-1) != 0 || f.escaped.Load() {
		return
	}
	select {
	case f.home <- f:
	default:
		framePool.Put(f)
	}
}

// readRelayFrame reads one frame for the broker's read loop, returning its
// op and payload. A frame of at least relayPoolMin bytes is read into a
// recycled buffer (getFrame) and comes back with its frame, holding one
// reference that is the caller's to release; a smaller one gets a fresh
// buffer and a nil frame.
func readRelayFrame(r *bufio.Reader, home chan *frame) (byte, []byte, *frame, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return 0, nil, nil, err
	}
	var f *frame
	var buf []byte
	if n >= relayPoolMin {
		f = getFrame(home, n)
		buf = f.buf
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		f.release()
		return 0, nil, nil, err
	}
	return buf[0], buf[1:], f, nil
}

func u16(v int) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(v))
	return b[:]
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// cursor decodes a frame payload with bounds checks. The first read past
// the payload's end sets err, and every read after it returns zero values,
// so a decoder reads all its fields and checks err once.
type cursor struct {
	b   []byte
	pos int
	err error
}

// bytes returns the next n bytes, aliasing the payload.
func (c *cursor) bytes(n int) []byte {
	if c.err != nil || n < 0 || c.pos+n > len(c.b) {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v
}

func (c *cursor) u16() int {
	if b := c.bytes(2); b != nil {
		return int(binary.LittleEndian.Uint16(b))
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// str reads a u16-length-prefixed field.
func (c *cursor) str() []byte {
	return c.bytes(c.u16())
}

// rest returns the bytes after the last field read, nil after an overrun.
func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	v := c.b[c.pos:]
	c.pos = len(c.b)
	return v
}
