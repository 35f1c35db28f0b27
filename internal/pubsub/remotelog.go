package pubsub

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Remote log fetch: a pull-based, offset-addressed protocol for reading a
// LogStore across process boundaries through the broker.
//
// The broker itself is at-most-once — a subscriber that is partitioned away
// simply misses messages — so a worker that must process *every* record of a
// durable log cannot just subscribe to the live subject. Instead the process
// that owns the LogStore runs a LogServer, answering "give me records from
// offset N" requests on a well-known fetch subject, and remote consumers
// drive a RemoteCursor that requests batches by explicit offset. Faults only
// delay a fetch or force a retry of the same offsets: the offset is the
// idempotency key, so severed links, blackholes, broker restarts, and
// duplicated responses all converge to exactly the stored record sequence.
// Combined with checkpointed source positions and a DeliverDurable sink this
// yields effectively-once output across real process crashes (DESIGN.md §14).

// logFetchPrefix namespaces the fetch subjects derived from stored subjects.
const logFetchPrefix = "strata.logfetch"

// remoteLogMaxBatch caps the encoded payload of one fetch response, well
// under maxFrameSize so a response frame can never be rejected by the wire.
// A single record larger than the cap still travels, alone in its batch.
const remoteLogMaxBatch = 1 << 20

// remoteLogMaxRecord is the largest record a fetch response can carry: a
// frame's worth less room for the record's batch header and for the opMsg
// header with a subject and reply at the wire's 64 KiB limit each. Append
// accepts records up to seglog.MaxRecord, so a larger one is stored but
// answered with the logRecordTooLarge marker instead of its data.
const remoteLogMaxRecord = maxFrameSize - 1<<18

// logRecordTooLarge in a batch record's length field marks a record over
// remoteLogMaxRecord at that offset. It carries no data and ends the batch.
const logRecordTooLarge = math.MaxUint32

// RecordTooLargeError is returned by RemoteCursor.Next when the record at the
// cursor is too large for a fetch response frame (over 64 MiB less
// headers). Reading past it takes a local LogStore Cursor.
type RecordTooLargeError struct {
	Subject string
	Offset  uint64
}

func (e *RecordTooLargeError) Error() string {
	return fmt.Sprintf("pubsub: record %d of %s is too large for a remote fetch (limit %d bytes)", e.Offset, e.Subject, remoteLogMaxRecord)
}

// LogFetchSubject returns the request subject on which a LogServer for
// subject answers fetches. Stored subjects are dot-token hierarchies, so
// appending one keeps the fetch subject valid.
func LogFetchSubject(subject string) string {
	return logFetchPrefix + "." + subject
}

// logFetchReq is the fixed-size fetch request: start offset, batch cap, and
// how long the server may hold the request open waiting for new records
// (long poll) before answering empty.
type logFetchReq struct {
	from   uint64
	max    uint32
	waitMs uint32
}

func encodeLogFetchReq(r logFetchReq) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], r.from)
	binary.LittleEndian.PutUint32(buf[8:12], r.max)
	binary.LittleEndian.PutUint32(buf[12:16], r.waitMs)
	return buf
}

func decodeLogFetchReq(b []byte) (logFetchReq, error) {
	if len(b) != 16 {
		return logFetchReq{}, fmt.Errorf("pubsub: log fetch request is %d bytes, want 16", len(b))
	}
	return logFetchReq{
		from:   binary.LittleEndian.Uint64(b[0:8]),
		max:    binary.LittleEndian.Uint32(b[8:12]),
		waitMs: binary.LittleEndian.Uint32(b[12:16]),
	}, nil
}

// decodeLogBatch reads the records LogStore.appendLogBatch framed as
// repeated [offset u64][len u32][data]. A truncated tail ends the batch (the
// retry refetches it); records before the truncation are kept. A
// logRecordTooLarge marker ends it and comes back as tooLarge.
func decodeLogBatch(subject string, b []byte) (msgs []StoredMessage, tooLarge *RecordTooLargeError) {
	for len(b) >= 12 {
		off := binary.LittleEndian.Uint64(b[0:8])
		n := binary.LittleEndian.Uint32(b[8:12])
		b = b[12:]
		if n == logRecordTooLarge {
			return msgs, &RecordTooLargeError{Subject: subject, Offset: off}
		}
		if int64(n) > int64(len(b)) {
			break
		}
		msgs = append(msgs, StoredMessage{Subject: subject, Offset: off, Data: b[:n]})
		b = b[n:]
	}
	return msgs, nil
}

// LogServer answers offset-addressed fetch requests for one subject of a
// local LogStore over a ReconnectConn. The subscription is durable: it
// survives broker restarts, so a remote cursor's retries find the server
// again once the link heals.
type LogServer struct {
	sub    *ReconnectSub
	cancel context.CancelFunc
	done   chan struct{}
}

// ServeLog starts answering fetches for subject from store on rc's broker.
// Close the returned server to stop.
func ServeLog(rc *ReconnectConn, store *LogStore, subject string) (*LogServer, error) {
	if err := ValidateSubject(subject); err != nil {
		return nil, err
	}
	sub, err := rc.Subscribe(LogFetchSubject(subject), WithSubBuffer(64))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &LogServer{sub: sub, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// One response buffer for the server's life: records are read
		// straight into it, and PublishMsg has copied it to the socket or
		// the pending ring by the time it returns (DESIGN.md §13).
		var buf []byte
		for msg := range sub.C {
			req, err := decodeLogFetchReq(msg.Data)
			if err != nil || msg.Reply == "" {
				continue // not ours to answer; a retry will re-ask properly
			}
			max := int(req.max)
			var n int
			buf, n, err = store.appendLogBatch(buf[:0], subject, req.from, max)
			if err == nil && n == 0 && req.waitMs > 0 {
				// Long poll: hold the request open briefly so a caught-up
				// consumer doesn't hot-loop empty fetches.
				wctx, wcancel := context.WithTimeout(ctx, time.Duration(req.waitMs)*time.Millisecond)
				if store.waitFor(wctx, subject, req.from) == nil {
					buf, _, _ = store.appendLogBatch(buf[:0], subject, req.from, max)
				}
				wcancel()
			}
			// An empty (or error) answer is still an answer: the cursor
			// distinguishes "nothing yet" from "nobody home" by the reply
			// arriving at all.
			_ = rc.Publish(msg.Reply, buf)
		}
	}()
	return s, nil
}

// Close stops answering fetches and releases the subscription.
func (s *LogServer) Close() error {
	s.cancel()
	err := s.sub.Unsubscribe()
	<-s.done
	return err
}

// RemoteCursor reads a remote LogStore subject by explicit offset through a
// ReconnectConn, retrying fetches across link faults. It is the consumer
// half of ServeLog and the remote analogue of LogStore.Cursor: Next returns
// records in offset order with no gaps, regardless of how often the link
// drops mid-fetch. Not safe for concurrent use.
type RemoteCursor struct {
	rc      *ReconnectConn
	subject string
	next    uint64

	// attempt bounds one request/response round trip before the cursor
	// re-asks; it must exceed the server-side long poll (pollMs).
	attempt time.Duration
	pollMs  uint32
}

// NewRemoteCursor returns a cursor over subject starting at offset from.
func NewRemoteCursor(rc *ReconnectConn, subject string, from uint64) *RemoteCursor {
	return &RemoteCursor{
		rc:      rc,
		subject: subject,
		next:    from,
		attempt: 2 * time.Second,
		pollMs:  250,
	}
}

// Offset returns the offset the next read will start at.
func (c *RemoteCursor) Offset() uint64 { return c.next }

// Next fetches up to max records at the cursor position, blocking until at
// least one record arrives, ctx is done, or the conn closes. Lost requests
// and lost responses are retried at the same offset; duplicate or stale
// responses are filtered by offset, so the stream Next returns is exactly
// the stored sequence.
func (c *RemoteCursor) Next(ctx context.Context, max int) ([]StoredMessage, error) {
	if max <= 0 {
		max = 256
	}
	for {
		msgs, err := c.fetchOnce(ctx, max)
		if err != nil || len(msgs) > 0 {
			return msgs, err
		}
		// Empty answer or timed-out attempt: re-ask at the same offset.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
	}
}

// fetchOnce runs one request/response round trip. It returns (nil, nil) when
// the attempt yielded no records (no answer in time, or an empty answer),
// which the caller treats as "ask again".
func (c *RemoteCursor) fetchOnce(ctx context.Context, max int) ([]StoredMessage, error) {
	inbox := nextInbox()
	sub, err := c.rc.Subscribe(inbox, WithSubBuffer(4))
	if err != nil {
		return nil, err
	}
	defer func() { _ = sub.Unsubscribe() }()

	req := logFetchReq{from: c.next, max: uint32(max), waitMs: c.pollMs}
	if err := c.rc.PublishMsg(Message{
		Subject: LogFetchSubject(c.subject),
		Reply:   inbox,
		Data:    encodeLogFetchReq(req),
	}); err != nil {
		return nil, err
	}

	timer := time.NewTimer(c.attempt)
	defer timer.Stop()
	select {
	case msg, ok := <-sub.C:
		if !ok {
			return nil, ErrClosed
		}
		msgs, tooLarge := decodeLogBatch(c.subject, msg.Data)
		// Drop anything a stale or duplicated response replays from before
		// the cursor position, and anything after a gap: offsets must
		// continue exactly at next.
		out := msgs[:0]
		want := c.next
		for _, m := range msgs {
			if m.Offset == want {
				out = append(out, m)
				want++
			}
		}
		c.next = want
		if len(out) > 0 {
			return out, nil
		}
		if tooLarge != nil && tooLarge.Offset == want {
			return nil, tooLarge
		}
		return nil, nil
	case <-timer.C:
		return nil, nil // lost request or response; caller re-asks
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
