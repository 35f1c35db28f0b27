package pubsub

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"strata/internal/seglog"
)

// LogStore persists published messages per subject in append-only files, so
// consumers can replay a topic from any offset — the retention/offset model
// Kafka brings to the paper's connectors. A core broker alone is
// at-most-once and fan-out only; recording the raw-data connector into a
// LogStore lets an event-detection pipeline deployed mid-build (or after
// it) reprocess every layer.
//
// One seglog file per subject (framing, group commit and crash recovery
// live there — DESIGN.md, "Durable log"), one record per message. Offsets
// are record ordinals (0-based), not byte positions. Safe for concurrent
// use.
//
// Durability is governed by a SyncPolicy. The default, SyncNever, flushes
// each record to the OS but never fsyncs: a process crash loses nothing, a
// machine crash may lose the tail (recovery at open keeps a clean prefix).
// Stores backing checkpoint replay topics should use WithLogSync(SyncGroup)
// so a recorded offset is never ahead of the disk.
type LogStore struct {
	dir    string
	policy SyncPolicy

	mu     sync.Mutex
	closed bool
	topics map[string]*topicLog
	// sig is closed and remade on every successful append, waking NextWait
	// cursors. It exists even for subjects with no topic file yet, so a
	// cursor can tail a topic that will only be created later.
	sig chan struct{}

	// stats counts, under SyncGroup, the appends that requested durability
	// and the fsyncs actually issued across all topics.
	stats seglog.Stats
}

// SyncPolicy selects when a LogStore forces appended records to stable
// storage.
type SyncPolicy int

const (
	// SyncNever flushes appends to the OS but never calls fsync. Survives
	// process crashes; a machine crash may lose the unsynced tail. This is
	// the default and matches the store's historical behavior.
	SyncNever SyncPolicy = iota
	// SyncGroup fsyncs before Append returns, batching concurrent appends
	// behind a single fsync (group commit). Survives machine crashes.
	SyncGroup
)

// LogOption configures a LogStore at open time.
type LogOption func(*LogStore)

// WithLogSync selects the store's durability policy.
func WithLogSync(p SyncPolicy) LogOption {
	return func(ls *LogStore) { ls.policy = p }
}

// StoredMessage is one replayed record.
type StoredMessage struct {
	Subject string
	Offset  uint64
	Data    []byte
}

// ErrLogCorrupt reports a CRC or framing violation in a topic file.
var ErrLogCorrupt = seglog.ErrCorrupt

// topicLog is one subject's file plus the ordinal→position index over it.
type topicLog struct {
	log *seglog.Log
	// mu keeps the index in log order: an append and its index entry happen
	// under it. Committing happens outside it.
	mu      sync.Mutex
	offsets []int64 // byte position of each record
}

// OpenLogStore opens (creating if needed) a log store rooted at dir,
// loading the offset index of every existing topic file.
func OpenLogStore(dir string, opts ...LogOption) (*LogStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pubsub: create log dir: %w", err)
	}
	ls := &LogStore{
		dir:    dir,
		topics: make(map[string]*topicLog),
		sig:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(ls)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pubsub: read log dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".log") {
			continue
		}
		subject := fileToSubject(strings.TrimSuffix(name, ".log"))
		if _, err := ls.openTopic(subject); err != nil {
			return nil, errors.Join(err, ls.Close())
		}
	}
	return ls, nil
}

// subjectToFile encodes a subject as a filename: '_' escapes itself ("_u")
// and the '.' separators ("_d"), so decoding is a single unambiguous scan.
func subjectToFile(subject string) string {
	var b strings.Builder
	for i := 0; i < len(subject); i++ {
		switch subject[i] {
		case '_':
			b.WriteString("_u")
		case '.':
			b.WriteString("_d")
		default:
			b.WriteByte(subject[i])
		}
	}
	return b.String()
}

func fileToSubject(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if name[i] == '_' && i+1 < len(name) {
			switch name[i+1] {
			case 'u':
				b.WriteByte('_')
				i++
				continue
			case 'd':
				b.WriteByte('.')
				i++
				continue
			}
		}
		b.WriteByte(name[i])
	}
	return b.String()
}

// openTopic loads or creates a topic file and its offset index. Caller
// holds no locks; the store lock is taken here.
func (ls *LogStore) openTopic(subject string) (*topicLog, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return nil, ErrClosed
	}
	if t, ok := ls.topics[subject]; ok {
		return t, nil
	}
	t := &topicLog{}
	var stats *seglog.Stats
	if ls.policy == SyncGroup {
		stats = &ls.stats
	}
	path := filepath.Join(ls.dir, subjectToFile(subject)+".log")
	log, err := seglog.Open(path, ls.policy == SyncGroup, stats, func(pos int64, _ []byte) error {
		t.offsets = append(t.offsets, pos)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pubsub: open topic log: %w", err)
	}
	t.log = log
	ls.topics[subject] = t
	return t, nil
}

// Append stores data under subject and returns its offset. Under SyncNever
// the record is flushed to the OS before returning; under SyncGroup it is
// also fsynced (coalesced with concurrent appends) so the returned offset
// is durable.
func (ls *LogStore) Append(subject string, data []byte) (uint64, error) {
	if err := ValidateSubject(subject); err != nil {
		return 0, err
	}
	t, err := ls.openTopic(subject)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	pos := t.log.Size()
	end, err := t.log.Append(data)
	if err != nil {
		t.mu.Unlock()
		return 0, err
	}
	off := uint64(len(t.offsets))
	t.offsets = append(t.offsets, pos)
	t.mu.Unlock()
	if err := t.log.Commit(end); err != nil {
		return 0, err
	}
	ls.notifyAppend()
	return off, nil
}

// notifyAppend wakes every cursor blocked in NextWait.
func (ls *LogStore) notifyAppend() {
	ls.mu.Lock()
	if !ls.closed {
		close(ls.sig)
		ls.sig = make(chan struct{})
	}
	ls.mu.Unlock()
}

// Len returns the number of records stored under subject (0 for unknown
// subjects).
func (ls *LogStore) Len(subject string) uint64 {
	ls.mu.Lock()
	t, ok := ls.topics[subject]
	ls.mu.Unlock()
	if !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(len(t.offsets))
}

// Subjects lists the topics with at least one record.
func (ls *LogStore) Subjects() []string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := make([]string, 0, len(ls.topics))
	for s, t := range ls.topics {
		t.mu.Lock()
		n := len(t.offsets)
		t.mu.Unlock()
		if n > 0 {
			out = append(out, s)
		}
	}
	return out
}

// Read returns up to max records of subject starting at offset from.
// max <= 0 means "all remaining".
func (ls *LogStore) Read(subject string, from uint64, max int) ([]StoredMessage, error) {
	t, offsets, _, err := ls.index(subject)
	if err != nil || from >= uint64(len(offsets)) {
		return nil, err
	}
	end := len(offsets)
	if max > 0 && int(from)+max < end {
		end = int(from) + max
	}
	out := make([]StoredMessage, 0, end-int(from))
	for i := int(from); i < end; i++ {
		data, err := t.log.ReadAt(offsets[i])
		if err != nil {
			return nil, fmt.Errorf("pubsub: read offset %d of %s: %w", i, subject, err)
		}
		out = append(out, StoredMessage{Subject: subject, Offset: uint64(i), Data: data})
	}
	return out, nil
}

// index returns subject's topic with a snapshot of its record positions and
// the byte size of the log they cover (nil topic for an unknown subject).
// Index entries are never rewritten, so the snapshot stays valid while
// appends grow the slice and reads run without the lock.
func (ls *LogStore) index(subject string) (t *topicLog, offsets []int64, size int64, err error) {
	ls.mu.Lock()
	t, ok := ls.topics[subject]
	closed := ls.closed
	ls.mu.Unlock()
	if closed {
		return nil, nil, 0, ErrClosed
	}
	if !ok {
		return nil, nil, 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Append holds t.mu from reading Size to indexing the record, so under
	// it the log ends exactly where the last indexed record does.
	return t, t.offsets, t.log.Size(), nil
}

// appendLogBatch appends up to max records of subject, starting at offset
// from, to dst in the fetch response framing ([offset u64][len u32][data]
// each; see decodeLogBatch), reading every payload straight into dst. It
// stops before a record that would take the batch past remoteLogMaxBatch,
// but the first record always goes in, so a batch is never empty while a
// record is available. A record over remoteLogMaxRecord, which no response
// frame can carry, ends the batch; as the first record it is written as its
// offset and the logRecordTooLarge length, with no data. It returns the
// extended dst and the number of records (the marker included).
func (ls *LogStore) appendLogBatch(dst []byte, subject string, from uint64, max int) ([]byte, int, error) {
	t, offsets, size, err := ls.index(subject)
	if err != nil || from >= uint64(len(offsets)) {
		return dst, 0, err
	}
	start := len(dst)
	n := 0
	for i := int(from); i < len(offsets) && (max <= 0 || n < max); i++ {
		end := size
		if i+1 < len(offsets) {
			end = offsets[i+1]
		}
		rlen := end - offsets[i] - seglog.HeaderSize
		if rlen > remoteLogMaxRecord {
			if n == 0 {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
				dst = binary.LittleEndian.AppendUint32(dst, logRecordTooLarge)
				n++
			}
			break
		}
		if n > 0 && int64(len(dst)-start)+12+rlen > remoteLogMaxBatch {
			break
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rlen))
		rec := len(dst)
		if dst, err = t.log.AppendAt(dst, offsets[i]); err == nil && int64(len(dst)-rec) != rlen {
			err = fmt.Errorf("%w: record is %d bytes, index says %d", ErrLogCorrupt, len(dst)-rec, rlen)
		}
		if err != nil {
			return dst[:start], 0, fmt.Errorf("pubsub: read offset %d of %s: %w", i, subject, err)
		}
		n++
	}
	return dst, n, nil
}

// waitFor blocks until subject holds a record at offset from, ctx is done
// or the store closes (ErrClosed).
func (ls *LogStore) waitFor(ctx context.Context, subject string, from uint64) error {
	for {
		// Capture the signal before polling: an append that lands between
		// the poll and the wait closes this channel, so the wakeup cannot
		// be missed.
		ls.mu.Lock()
		closed := ls.closed
		sig := ls.sig
		ls.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if ls.Len(subject) > from {
			return nil
		}
		select {
		case <-sig:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close flushes (and, under SyncGroup, fsyncs) every topic and releases the
// files. Blocked NextWait cursors return ErrClosed.
func (ls *LogStore) Close() error {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return ErrClosed
	}
	ls.closed = true
	close(ls.sig) // wake NextWait waiters; closed stays set so they stop
	topics := ls.topics
	ls.topics = nil
	ls.mu.Unlock()

	var errs []error
	for _, t := range topics {
		errs = append(errs, t.log.Close())
	}
	return errors.Join(errs...)
}

// SyncStats reports group-commit effectiveness: commits is the number of
// appends that requested durability (SyncGroup), syncs the fsyncs actually
// issued. commits-syncs appends rode another append's fsync.
func (ls *LogStore) SyncStats() (commits, syncs uint64) {
	return ls.stats.Commits.Load(), ls.stats.Syncs.Load()
}

// Cursor is a single-consumer tail iterator over one topic. It tracks the
// next offset to read and supports blocking tail-follow via NextWait — the
// primitive replay sources use to hand off from recorded history to live
// traffic without a gap or overlap. Not safe for concurrent use by multiple
// goroutines.
type Cursor struct {
	ls      *LogStore
	subject string
	next    uint64
}

// Cursor returns a cursor over subject starting at offset from. The topic
// need not exist yet; the cursor will pick it up when the first record
// arrives.
func (ls *LogStore) Cursor(subject string, from uint64) *Cursor {
	return &Cursor{ls: ls, subject: subject, next: from}
}

// Offset returns the offset the next read will start at — i.e. one past the
// last record already returned.
func (c *Cursor) Offset() uint64 { return c.next }

// Next returns up to max records at the cursor position without blocking
// (nil when caught up) and advances past them. max <= 0 means "all
// available".
func (c *Cursor) Next(max int) ([]StoredMessage, error) {
	msgs, err := c.ls.Read(c.subject, c.next, max)
	if err != nil {
		return nil, err
	}
	c.next += uint64(len(msgs))
	return msgs, nil
}

// NextWait behaves like Next but blocks until at least one record is
// available, the context is done, or the store closes (ErrClosed).
func (c *Cursor) NextWait(ctx context.Context, max int) ([]StoredMessage, error) {
	for {
		if err := c.ls.waitFor(ctx, c.subject, c.next); err != nil {
			return nil, err
		}
		msgs, err := c.Next(max)
		if err != nil || len(msgs) > 0 {
			return msgs, err
		}
	}
}

// Recorder copies every broker message matching a pattern into a LogStore.
type Recorder struct {
	sub  *Subscription
	done chan struct{}

	mu  sync.Mutex
	err error
}

// Record subscribes to pattern on broker and appends every delivered
// message to store until Stop is called. Recording uses a Block
// subscription: the broker's publishers see back-pressure rather than loss
// while the disk keeps up.
func Record(broker *Broker, pattern string, store *LogStore) (*Recorder, error) {
	sub, err := broker.Subscribe(pattern, WithSubBuffer(1024))
	if err != nil {
		return nil, err
	}
	r := &Recorder{sub: sub, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for msg := range sub.C {
			if _, err := store.Append(msg.Subject, msg.Data); err != nil {
				r.mu.Lock()
				r.err = err
				r.mu.Unlock()
				return
			}
		}
	}()
	return r, nil
}

// Stop detaches the recorder and waits for the pending appends; it returns
// the first append error, if any.
func (r *Recorder) Stop() error {
	r.sub.Unsubscribe()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
