package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/obslog"
	"strata/internal/seglog"
	"strata/internal/telemetry"
)

const (
	walFileName   = "wal.log"
	sstFilePrefix = "sst-"
	sstFileSuffix = ".sst"
	// tmpSuffix marks a table still being written; Open deletes it.
	tmpSuffix = ".tmp"
)

// options tune a DB. WithSyncWrites is the one Open option; the rest stay at
// their defaults outside tests.
type options struct {
	memtableBytes       int
	compactionThreshold int
	syncWrites          bool
	seed                int64
}

const (
	// memtableBytes is the approximate memtable size that triggers a flush
	// to an SSTable.
	memtableBytes = 4 << 20
	// compactionThreshold is how many SSTables may accumulate before they
	// are merged into one.
	compactionThreshold = 8
	// blockCacheBytes is the capacity of the LRU cache over SSTable data
	// blocks that point lookups read through, shared by all tables of a DB.
	blockCacheBytes = 4 << 20
	// bloomFalsePositiveRate is the target false positive rate of the bloom
	// filter written into every new SSTable.
	bloomFalsePositiveRate = 0.01
)

// Option customizes Open.
type Option func(*options)

// WithSyncWrites makes every WAL append fsync before returning. Durable but
// slow; off by default (the paper's workload tolerates at-most-once loss of
// the last instants on power failure, like RocksDB's default).
func WithSyncWrites(sync bool) Option {
	return func(o *options) { o.syncWrites = sync }
}

// DB is an embedded LSM key-value store. All methods are safe for concurrent
// use.
type DB struct {
	dir  string
	opts options

	mu      sync.RWMutex
	closed  bool
	mem     *memtable
	wal     *wal
	tables  []*sstable // oldest first; lookups scan newest first
	nextNum uint64
	cache   *blockCache // shared across all tables

	flushes     uint64
	compactions uint64

	// Latency distributions and bloom-filter effectiveness counters,
	// exported via Collect.
	flushSeconds      *telemetry.Histogram
	compactionSeconds *telemetry.Histogram
	walAppendSeconds  *telemetry.Histogram
	walFsyncSeconds   *telemetry.Histogram
	walStats          seglog.Stats // shared by every WAL generation, so it survives rotation
	bloomChecks       atomic.Uint64
	bloomSkips        atomic.Uint64
	bloomFalsePos     atomic.Uint64
}

// Stats is a point-in-time summary of the store's state.
type Stats struct {
	MemtableBytes   int
	MemtableEntries int
	SSTables        int
	Flushes         uint64
	Compactions     uint64
	// BlockCacheHits/Misses count point lookups served from / missing the
	// SSTable block cache.
	BlockCacheHits   uint64
	BlockCacheMisses uint64
}

// Open opens (creating if necessary) the store in dir.
func Open(dir string, optFns ...Option) (*DB, error) {
	opts := options{
		memtableBytes:       memtableBytes,
		compactionThreshold: compactionThreshold,
		seed:                1,
	}
	for _, f := range optFns {
		f(&opts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}

	db := &DB{
		dir:               dir,
		opts:              opts,
		mem:               newMemtable(opts.seed),
		flushSeconds:      telemetry.NewDurationHistogram(),
		compactionSeconds: telemetry.NewDurationHistogram(),
		walAppendSeconds:  telemetry.NewDurationHistogram(),
		walFsyncSeconds:   telemetry.NewDurationHistogram(),
	}
	db.cache = newBlockCache(blockCacheBytes)
	db.walStats.ObserveFsync = db.walFsyncSeconds.ObserveDuration

	// Load existing SSTables in file-number order (oldest first).
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: read dir: %w", err)
	}
	// A table is a file named exactly sstPath(num); a .tmp file is a table a
	// crash cut short, and goes.
	var nums []uint64
	removed := false
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, sstFilePrefix) && strings.HasSuffix(name, sstFileSuffix+tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("kvstore: remove partial sstable: %w", err)
			}
			removed = true
			continue
		}
		var num uint64
		if _, err := fmt.Sscanf(name, sstFilePrefix+"%d"+sstFileSuffix, &num); err != nil || filepath.Base(db.sstPath(num)) != name {
			continue
		}
		nums = append(nums, num)
	}
	if removed {
		if err := seglog.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("kvstore: sync dir: %w", err)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, num := range nums {
		t, err := openSSTable(db.sstPath(num), num, db.cache)
		if err != nil {
			return nil, errors.Join(err, db.closeTables())
		}
		db.tables = append(db.tables, t)
		if num >= db.nextNum {
			db.nextNum = num + 1
		}
	}

	// Replay the WAL into a fresh memtable (crash recovery).
	if err := db.openWAL(func(kind byte, key, value []byte) {
		k := append([]byte(nil), key...)
		v := append([]byte(nil), value...)
		db.mem.put(k, v, kind == walDelete)
	}); err != nil {
		return nil, errors.Join(err, db.closeTables())
	}
	return db, nil
}

// openWAL opens the store's log as db.wal, replaying what it holds into
// apply.
func (db *DB) openWAL(apply func(kind byte, key, value []byte)) error {
	w, err := openWAL(filepath.Join(db.dir, walFileName), db.opts.syncWrites, &db.walStats, apply)
	if err != nil {
		return err
	}
	w.appendHist = db.walAppendSeconds
	db.wal = w
	return nil
}

func (db *DB) sstPath(num uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("%s%08d%s", sstFilePrefix, num, sstFileSuffix))
}

// closeTables releases every open SSTable handle, returning the joined
// close errors so failed teardown is never silent.
func (db *DB) closeTables() error {
	var errs []error
	for _, t := range db.tables {
		if err := t.close(); err != nil {
			errs = append(errs, err)
		}
	}
	db.tables = nil
	return errors.Join(errs...)
}

// Put stores value under key. Both slices are copied.
func (db *DB) Put(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	// Capture the WAL before maybeFlushLocked: a memtable flush rotates
	// db.wal, and this record's durability point lives in the old log (a
	// rotated log commits trivially — the SSTable already holds the data).
	w := db.wal
	off, err := w.append(walPut, key, value)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	db.mem.put(k, v, false)
	err = db.maybeFlushLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	// Group commit outside the DB lock: writers arriving while the leader
	// is in fsync form the next cohort instead of queueing on the disk.
	return w.log.Commit(off)
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	w := db.wal
	off, err := w.append(walDelete, key, nil)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	k := append([]byte(nil), key...)
	db.mem.put(k, nil, true)
	err = db.maybeFlushLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return w.log.Commit(off)
}

// Get returns a copy of the value stored under key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if v, tomb, found := db.mem.get(key); found {
		if tomb {
			return nil, ErrNotFound
		}
		return append([]byte(nil), v...), nil
	}
	for i := len(db.tables) - 1; i >= 0; i-- {
		t := db.tables[i]
		// Account the bloom filter's verdict here (t.get re-checks it,
		// which is deterministic): a table whose filter passes the key
		// but does not contain it is a false positive — the filter's
		// hit ratio is what Collect exports.
		db.bloomChecks.Add(1)
		if !t.bloom.mayContain(key) {
			db.bloomSkips.Add(1)
			continue
		}
		v, tomb, found, err := t.get(key)
		if err != nil {
			return nil, err
		}
		if found {
			if tomb {
				return nil, ErrNotFound
			}
			return v, nil
		}
		db.bloomFalsePos.Add(1)
	}
	return nil, ErrNotFound
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	_, err := db.Get(key)
	if err == nil {
		return true, nil
	}
	if err == ErrNotFound {
		return false, nil
	}
	return false, err
}

// Flush forces the memtable to disk as an SSTable.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

// Compact merges all SSTables into one, dropping shadowed entries and
// tombstones.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.compactLocked()
}

// Stats returns a snapshot of the store's state.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	hits, misses := db.cache.stats()
	return Stats{
		MemtableBytes:    db.mem.size,
		MemtableEntries:  db.mem.count,
		SSTables:         len(db.tables),
		Flushes:          db.flushes,
		Compactions:      db.compactions,
		BlockCacheHits:   hits,
		BlockCacheMisses: misses,
	}
}

// Close flushes the memtable and releases all file handles, surfacing every
// teardown failure (flush, WAL close, SSTable closes) as one joined error.
// The DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	var errs []error
	if db.mem.count > 0 {
		if err := db.flushLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := db.wal.log.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := db.closeTables(); err != nil {
		errs = append(errs, err)
	}
	db.closed = true
	return errors.Join(errs...)
}

func (db *DB) maybeFlushLocked() error {
	if db.mem.size < db.opts.memtableBytes {
		return nil
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	if len(db.tables) > db.opts.compactionThreshold {
		return db.compactLocked()
	}
	return nil
}

// flushLocked writes the memtable to a new SSTable, resets the memtable, and
// truncates the WAL. Caller holds db.mu.
func (db *DB) flushLocked() error {
	entries := db.mem.all()
	if len(entries) == 0 {
		return nil
	}
	start := time.Now()
	num := db.nextNum
	path := db.sstPath(num)
	if _, err := writeSSTable(path, entries); err != nil {
		return err
	}
	t, err := openSSTable(path, num, db.cache)
	if err != nil {
		return err
	}
	db.nextNum++
	db.tables = append(db.tables, t)
	db.mem = newMemtable(db.opts.seed + int64(num) + 1)

	// The flushed entries are durable in the SSTable; start a fresh WAL.
	// Creating it fsyncs the directory, which makes the removal durable too.
	if err := db.wal.log.Close(); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(db.dir, walFileName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("kvstore: remove wal: %w", err)
	}
	if err := db.openWAL(nil); err != nil {
		return err
	}
	db.flushes++
	db.flushSeconds.ObserveDuration(time.Since(start))
	obslog.L("kvstore").Debug("memtable flushed",
		"entries", len(entries), "sstable", num,
		"duration", time.Since(start).String())
	return nil
}
