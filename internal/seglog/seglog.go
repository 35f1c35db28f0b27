// Package seglog is the one durable log under strata's storage layers: the
// kvstore write-ahead log and the pubsub topic files are both a seglog.Log
// carrying their own payloads.
//
// A log is an append-only file of CRC-framed records (little endian):
//
//	crc32(payload) uint32 | len(payload) uint32 | payload
//
// Append buffers a record and returns the byte offset just past it; Commit
// makes that offset durable. Concurrent committers coalesce (group commit):
// the first to take the commit lock becomes the cohort leader and flushes —
// and fsyncs, in sync mode — everything appended so far, so every waiter
// queued behind it finds its own offset already covered and returns without
// touching the disk. A writer arriving while the leader is inside fsync
// starts the next cohort instead of queueing on the device.
//
// Open recovers the file before any append: it verifies every record,
// truncates a torn or damaged final record (a crash mid-append), and
// refuses with ErrCorrupt a damaged record with anything after it — that
// is not a crash artefact but silent damage to acknowledged data.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// HeaderSize is the framing in front of every payload, so a record that
	// starts at pos and ends where the next one starts (or at Size) carries
	// end-pos-HeaderSize payload bytes.
	HeaderSize = 8

	// MaxRecord bounds one record's payload. Append refuses larger payloads
	// and recovery treats a larger length field as damage, so a flipped bit
	// in a length can never turn into a multi-gigabyte allocation.
	MaxRecord = 1 << 30
)

var (
	// ErrCorrupt reports a record that fails its CRC or framing check.
	ErrCorrupt = errors.New("seglog: corrupt log")
	// ErrTooLarge is returned by Append for a payload over MaxRecord.
	ErrTooLarge = errors.New("seglog: record exceeds MaxRecord")
	// ErrClosed is returned by Append and the reads on a closed log.
	ErrClosed = errors.New("seglog: log is closed")
)

// Stats counts commit activity. One Stats may be shared by several logs (a
// rotated WAL, the topics of one store) so the totals outlive any one file.
type Stats struct {
	// Commits counts Commit calls; Syncs counts the cohorts that actually
	// reached the disk. Commits−Syncs is the round-trips coalesced away.
	Commits atomic.Uint64
	Syncs   atomic.Uint64
	// ObserveFsync, when set, receives the duration of every fsync.
	ObserveFsync func(time.Duration)
}

// Log is one open record file. Append calls must be serialized by the
// caller if it needs to know the order of records; everything else is safe
// for concurrent use.
type Log struct {
	f     *os.File
	sync  bool
	stats *Stats // nil: not counted

	// wmu guards the buffered writer: a commit leader flushes while other
	// goroutines append.
	wmu  sync.Mutex
	w    *bufio.Writer
	size int64            // bytes appended (buffered + flushed); always a record boundary
	hdr  [HeaderSize]byte // a field so Append does not allocate one

	// cmu serializes commit cohorts. It is never taken while holding wmu.
	cmu       sync.Mutex
	committed int64
	err       error // first flush/fsync failure; sticky — durability unknown after

	// closed is written holding both locks and may be read under either.
	closed bool
}

// Open opens (creating if needed) the log at path and recovers it: replay,
// when non-nil, is called with the position and payload of every intact
// record in order (the payload is only valid during the call), and a
// replay error aborts the open. sync selects whether Commit and Close
// fsync. stats may be nil. Creating the file fsyncs its directory, so a
// record committed to a new log does not vanish with the directory entry.
func Open(path string, sync bool, stats *Stats, replay func(pos int64, payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err == nil {
			err = SyncDir(filepath.Dir(path))
			if err != nil {
				err = errors.Join(err, f.Close())
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("seglog: open: %w", err)
	}
	size, err := recoverFile(f, replay)
	if err == nil {
		_, err = f.Seek(size, io.SeekStart)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("seglog: recover %s: %w", path, err), f.Close())
	}
	return &Log{f: f, sync: sync, stats: stats, w: bufio.NewWriter(f), size: size, committed: size}, nil
}

// SyncDir fsyncs directory dir, making the files created, renamed or
// removed in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// recoverFile scans f from the start, feeds every intact record to replay
// and returns the length of the intact prefix, truncating the file there.
//
// A crash tears only the tail, so exactly two kinds of damage are forgiven:
// a frame that runs past the end of the file (a torn write) and a CRC
// mismatch in the record that ends the file (its header reached the disk,
// its payload did not). A damaged record with bytes after it is not a crash
// artefact and fails the open. One case cannot be told apart: damage to a
// length field that makes the frame run past the end reads as a torn tail.
func recoverFile(f *os.File, replay func(pos int64, payload []byte) error) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	var buf []byte
	pos := int64(0)
	for pos < size {
		var err error
		buf, err = appendFrame(buf[:0], r, size-pos)
		if err == errTorn || (errors.Is(err, ErrCorrupt) && pos+HeaderSize+int64(len(buf)) == size) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("record at byte %d of %d: %w", pos, size, err)
		}
		if replay != nil {
			if err := replay(pos, buf); err != nil {
				return 0, err
			}
		}
		pos += HeaderSize + int64(len(buf))
	}
	if pos < size {
		if err := f.Truncate(pos); err != nil {
			return 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	return pos, nil
}

// errTorn reports a frame that does not fit in what is left of the file.
var errTorn = errors.New("seglog: torn record")

// appendFrame reads the frame at r's position, of which remain bytes are
// left in the file, and appends its payload to dst, growing dst only when
// its spare capacity is short of the payload. The error is errTorn for a
// frame that runs past remain, and wraps ErrCorrupt for a length over
// MaxRecord (dst comes back as it was, nothing is allocated) or a CRC
// mismatch (dst comes back with the declared length appended).
func appendFrame(dst []byte, r io.Reader, remain int64) ([]byte, error) {
	if remain < HeaderSize {
		return dst, errTorn
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return dst, err
	}
	plen := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(plen) > remain-HeaderSize {
		return dst, errTorn
	}
	if plen > MaxRecord {
		return dst, fmt.Errorf("%w: record length %d", ErrCorrupt, plen)
	}
	start := len(dst)
	dst = slices.Grow(dst, int(plen))[:start+int(plen)]
	payload := dst[start:]
	if _, err := io.ReadFull(r, payload); err != nil {
		return dst[:start], err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[0:4]) {
		return dst, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return dst, nil
}

// Append buffers one record and returns the offset just past it; the record
// is durable only once Commit of that offset returns. payload is not
// retained. The header and the payload go to the buffered writer as they
// are — a payload larger than the buffer is written through, never staged.
func (l *Log) Append(payload []byte) (end int64, err error) {
	if len(payload) > MaxRecord {
		return 0, ErrTooLarge
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	binary.LittleEndian.PutUint32(l.hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(l.hdr[4:8], uint32(len(payload)))
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return 0, fmt.Errorf("seglog: write: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, fmt.Errorf("seglog: write: %w", err)
	}
	l.size += HeaderSize + int64(len(payload))
	return l.size, nil
}

// Commit blocks until everything up to end is flushed (and fsynced, in sync
// mode). Callers must not hold a lock that appenders need: cohort formation
// depends on other writers appending while the leader is in the syscall. A
// closed log commits trivially — Close flushed and synced on the way out.
func (l *Log) Commit(end int64) error {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	if l.stats != nil {
		l.stats.Commits.Add(1)
	}
	if l.err != nil {
		return l.err
	}
	if l.closed || l.committed >= end {
		return nil // a previous leader's flush covered this offset
	}

	l.wmu.Lock()
	target := l.size
	err := l.w.Flush()
	l.wmu.Unlock()
	if err != nil {
		l.err = fmt.Errorf("seglog: flush: %w", err)
		return l.err
	}
	if l.sync {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("seglog: fsync: %w", err)
			return l.err
		}
		if l.stats != nil && l.stats.ObserveFsync != nil {
			l.stats.ObserveFsync(time.Since(start))
		}
	}
	if l.stats != nil {
		l.stats.Syncs.Add(1)
	}
	l.committed = target
	return nil
}

// Size returns the number of bytes appended so far — the position the next
// record will start at.
func (l *Log) Size() int64 {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.size
}

// ReadAt returns the verified payload of the record starting at pos in a
// fresh buffer: AppendAt(nil, pos).
func (l *Log) ReadAt(pos int64) ([]byte, error) {
	return l.AppendAt(nil, pos)
}

// AppendAt appends the verified payload of the record starting at pos, which
// must be a position reported by replay or by Size before an Append, to dst
// and returns the extended slice. It allocates only when dst's spare
// capacity is short of the payload, so a caller that keeps the result and
// passes it back (truncated) reads every later record into the same buffer.
// On error dst comes back unextended.
func (l *Log) AppendAt(dst []byte, pos int64) ([]byte, error) {
	// The record may still sit in the writer (appended, not yet committed);
	// flush so the positional reads below see it.
	l.wmu.Lock()
	if l.closed {
		l.wmu.Unlock()
		return dst, ErrClosed
	}
	size := l.size
	err := l.w.Flush()
	l.wmu.Unlock()
	if err != nil {
		return dst, fmt.Errorf("seglog: flush: %w", err)
	}
	if pos < 0 || pos >= size {
		return dst, fmt.Errorf("seglog: read at %d: no record (log is %d bytes)", pos, size)
	}
	start := len(dst)
	dst, err = appendFrame(dst, io.NewSectionReader(l.f, pos, size-pos), size-pos)
	if err == errTorn {
		err = fmt.Errorf("%w: record runs past the end of the log", ErrCorrupt)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("seglog: read at %d: %w", pos, err)
	}
	return dst, nil
}

// Close flushes, fsyncs in sync mode — in-flight Commits resolve to nil once
// the log is closed, and this honours their claim — and releases the file.
func (l *Log) Close() error {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	err := l.w.Flush()
	if err == nil && l.sync {
		err = l.f.Sync()
	}
	if err != nil {
		err = fmt.Errorf("seglog: close: %w", err)
		if l.err == nil {
			l.err = err // a Commit that lost the race to Close must not claim durability
		}
	}
	return errors.Join(err, l.f.Close())
}
