package kvstore

import (
	"strata/internal/telemetry"
)

// Collect implements telemetry.Collector: memtable occupancy, SSTable and
// WAL state, flush/compaction activity with latency distributions, WAL
// append/fsync latency, group-commit coalescing and bloom-filter checks.
// Samples are labelled with the store directory so several open stores stay
// distinguishable.
func (db *DB) Collect(w *telemetry.Writer) {
	st := db.Stats()
	db.mu.RLock()
	walBytes := db.wal.log.Size()
	db.mu.RUnlock()

	dir := telemetry.L("dir", db.dir)
	w.Gauge("strata_kvstore_memtable_entries",
		"Entries buffered in the memtable.", float64(st.MemtableEntries), dir)
	w.Gauge("strata_kvstore_sstables",
		"Live SSTables (the store compacts to a single level).", float64(st.SSTables), dir)
	w.Gauge("strata_kvstore_wal_bytes",
		"Bytes in the active write-ahead log.", float64(walBytes), dir)
	w.Counter("strata_kvstore_flushes_total",
		"Memtable flushes to SSTables.", float64(st.Flushes), dir)
	w.Counter("strata_kvstore_compactions_total",
		"Full-merge compactions.", float64(st.Compactions), dir)

	w.Histogram("strata_kvstore_flush_seconds",
		"Memtable flush duration.", db.flushSeconds.Snapshot(), dir)
	w.Histogram("strata_kvstore_compaction_seconds",
		"Compaction duration.", db.compactionSeconds.Snapshot(), dir)
	w.Histogram("strata_kvstore_wal_append_seconds",
		"WAL append latency (encode, write, flush, and fsync when enabled).",
		db.walAppendSeconds.Snapshot(), dir)
	w.Histogram("strata_kvstore_wal_fsync_seconds",
		"WAL fsync latency (only populated with WithSyncWrites).",
		db.walFsyncSeconds.Snapshot(), dir)

	commits := db.walStats.Commits.Load()
	groupSyncs := db.walStats.Syncs.Load()
	w.Counter("strata_kvstore_wal_group_syncs_total",
		"Group-commit cohorts that reached the disk (flush + fsync when enabled).",
		float64(groupSyncs), dir)
	if commits > groupSyncs {
		w.Counter("strata_kvstore_wal_fsyncs_coalesced_total",
			"Disk round-trips avoided because a cohort leader's flush already covered the commit.",
			float64(commits-groupSyncs), dir)
	}

	w.Counter("strata_kvstore_bloom_checks_total",
		"Bloom-filter membership checks during Get.", float64(db.bloomChecks.Load()), dir)
}
