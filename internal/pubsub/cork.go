package pubsub

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// defaultFlushInterval is the pacing floor between socket flushes of a corked
// writer under sustained load. One flush per interval amortizes the syscall
// across every frame buffered meanwhile; an idle writer still flushes as soon
// as the flusher goroutine wakes (one kick), so single-frame latency stays in
// the tens of microseconds.
const defaultFlushInterval = 100 * time.Microsecond

// flushStats counts frames written versus socket flushes issued. frames−flushes
// is the number of syscalls the cork saved relative to the old
// flush-every-frame writer. Shared across writers (the server aggregates all
// connections into one).
type flushStats struct {
	frames  atomic.Uint64
	flushes atomic.Uint64
}

// corkedWriter serializes frame writes onto one bufio.Writer and decouples
// writing from flushing. Data frames go through writeCorked, which buffers the
// frame and nudges a background flusher; the flusher flushes immediately when
// the writer was idle and at most once per interval under load (the "cork").
// Control frames that answer an in-flight request (pong, err, sub acks in the
// client) use writeNow, which flushes inline — including any data frames
// buffered before them, so the wire order always matches the write order.
//
// interval 0 disables corking entirely: every write flushes inline, which is
// exactly the pre-cork behavior (and spawns no flusher goroutine).
type corkedWriter struct {
	interval time.Duration
	stats    *flushStats

	mu     sync.Mutex
	w      *bufio.Writer
	err    error // first write/flush error; sticky
	dirty  bool  // frames buffered since the last flush
	closed bool
	// scratch holds the length prefix, op, and metadata of a frame built by
	// writeMsg; guarded by mu and reused across frames, so the steady
	// publish/deliver path assembles headers without allocating.
	scratch []byte

	kick chan struct{} // cap 1: "there is unflushed data"
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

func newCorkedWriter(w *bufio.Writer, interval time.Duration, stats *flushStats) *corkedWriter {
	if stats == nil {
		stats = &flushStats{}
	}
	cw := &corkedWriter{interval: interval, stats: stats, w: w}
	if interval > 0 {
		cw.kick = make(chan struct{}, 1)
		cw.quit = make(chan struct{})
		cw.done = make(chan struct{})
		go cw.flusher()
	}
	return cw
}

// writeCorked buffers one frame and schedules a flush. The frame reaches the
// socket after at most one flusher wakeup (idle) or one interval (loaded).
func (cw *corkedWriter) writeCorked(op byte, payload ...[]byte) error {
	cw.mu.Lock()
	if err := cw.writeLocked(op, payload...); err != nil {
		cw.mu.Unlock()
		return err
	}
	if cw.interval <= 0 {
		err := cw.flushLocked()
		cw.mu.Unlock()
		return err
	}
	cw.dirty = true
	cw.mu.Unlock()
	select {
	case cw.kick <- struct{}{}:
	default: // a wakeup is already pending; it covers this frame too
	}
	return nil
}

// writeMsg assembles and writes one publish/deliver frame (opPub, opPubT,
// opMsg, opMsgT) through the cork without the per-field header slices of the
// generic variadic path: the length prefix, op, and metadata are built into
// the writer's reusable scratch and written in one call, and the payload is
// handed to the bufio writer directly (no staging copy for an 8 MB image
// frame). sid/seq ride only in the opMsg variants, tp only in the T variants.
func (cw *corkedWriter) writeMsg(op byte, sid, seq uint64, tp, subject, reply string, data []byte) error {
	total := msgFrameSize(op, tp, subject, reply, len(data))
	if total > maxFrameSize {
		return fmt.Errorf("pubsub: frame too large (%d bytes)", total)
	}
	cw.mu.Lock()
	if cw.err != nil {
		cw.mu.Unlock()
		return cw.err
	}
	if cw.closed {
		cw.mu.Unlock()
		return ErrClosed
	}
	b := append(cw.scratch[:0], 0, 0, 0, 0, op)
	if op == opMsg || op == opMsgT {
		b = binary.LittleEndian.AppendUint64(b, sid)
		b = binary.LittleEndian.AppendUint64(b, seq)
	}
	if op == opPubT || op == opMsgT {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(tp)))
		b = append(b, tp...)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(subject)))
	b = append(b, subject...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(reply)))
	b = append(b, reply...)
	cw.scratch = b
	binary.LittleEndian.PutUint32(b[:4], uint32(total))
	if _, err := cw.w.Write(b); err != nil {
		cw.err = err
		cw.mu.Unlock()
		return err
	}
	if len(data) > 0 {
		if _, err := cw.w.Write(data); err != nil {
			cw.err = err
			cw.mu.Unlock()
			return err
		}
	}
	cw.stats.frames.Add(1)
	if cw.interval <= 0 {
		err := cw.flushLocked()
		cw.mu.Unlock()
		return err
	}
	cw.dirty = true
	cw.mu.Unlock()
	select {
	case cw.kick <- struct{}{}:
	default: // a wakeup is already pending; it covers this frame too
	}
	return nil
}

// writeNow writes one frame and flushes before returning. Any corked frames
// written earlier flush with it (same buffer, same lock), preserving order.
func (cw *corkedWriter) writeNow(op byte, payload ...[]byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.writeLocked(op, payload...); err != nil {
		return err
	}
	return cw.flushLocked()
}

func (cw *corkedWriter) writeLocked(op byte, payload ...[]byte) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return ErrClosed
	}
	if err := writeFrameTo(cw.w, op, payload...); err != nil {
		cw.err = err
		return err
	}
	cw.stats.frames.Add(1)
	return nil
}

func (cw *corkedWriter) flushLocked() error {
	if cw.err != nil {
		return cw.err
	}
	if err := cw.w.Flush(); err != nil {
		cw.err = err
		return err
	}
	cw.stats.flushes.Add(1)
	cw.dirty = false
	return nil
}

// flush pushes any corked frames to the socket immediately. Used by callers
// that batched a burst of writes and now need them on the wire (e.g. the
// reconnect restore path).
func (cw *corkedWriter) flush() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return cw.err
	}
	if !cw.dirty {
		return nil
	}
	return cw.flushLocked()
}

// flusher drains the cork. An idle writer flushes the moment a frame appears
// (one goroutine wakeup, no timer in the path — request/reply latency is
// preserved); only when another kick is already pending after a flush — the
// writer is clearly under sustained load — does it sit out one interval so the
// burst coalesces into one syscall per interval. bufio's own buffer-full
// write-through bounds memory meanwhile.
func (cw *corkedWriter) flusher() {
	defer close(cw.done)
	pause := time.NewTimer(cw.interval)
	if !pause.Stop() {
		<-pause.C
	}
	for {
		select {
		case <-cw.quit:
			return
		case <-cw.kick:
		}
		cw.flushDirty()
		select {
		case <-cw.quit:
			return
		case <-cw.kick:
			// More frames arrived while flushing: pace, then flush the
			// accumulated burst in one go.
			pause.Reset(cw.interval)
			select {
			case <-pause.C:
			case <-cw.quit:
				return
			}
			cw.flushDirty()
		default:
			// Idle again: block on the next kick.
		}
	}
}

func (cw *corkedWriter) flushDirty() {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if !cw.dirty || cw.err != nil {
		return
	}
	if err := cw.w.Flush(); err != nil {
		cw.err = err
		return
	}
	cw.stats.flushes.Add(1)
	cw.dirty = false
}

// close stops the flusher and flushes whatever is still buffered. Writes after
// close fail with ErrClosed. Safe to call twice; returns the writer's sticky
// error, if any.
func (cw *corkedWriter) close() error {
	cw.once.Do(func() {
		if cw.quit != nil {
			close(cw.quit)
			<-cw.done
		}
		cw.mu.Lock()
		if cw.dirty && cw.err == nil {
			if err := cw.w.Flush(); err != nil {
				cw.err = err
			} else {
				cw.stats.flushes.Add(1)
				cw.dirty = false
			}
		}
		cw.closed = true
		cw.mu.Unlock()
	})
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.err
}
