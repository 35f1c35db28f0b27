package kvstore

import (
	"fmt"
	"os"
	"time"

	"strata/internal/obslog"
	"strata/internal/seglog"
)

// compactLocked merges every SSTable into a single new table. Within the
// merge the newest version of each key wins, and tombstones are discarded
// entirely (a full-merge compaction has nothing older left to shadow).
// Caller holds db.mu.
func (db *DB) compactLocked() error {
	if len(db.tables) <= 1 {
		return nil
	}
	start := time.Now()
	iters := make([]*sstIterator, len(db.tables))
	for i, t := range db.tables {
		it, err := t.first()
		if err != nil {
			return err
		}
		iters[i] = it
	}

	var merged []entry
	for {
		// Pick the smallest key among all iterators; on ties the newest
		// table (largest index) wins and the older duplicates advance.
		minIdx := -1
		for i, it := range iters {
			if !it.valid() {
				continue
			}
			if minIdx < 0 {
				minIdx = i
				continue
			}
			switch cmpKeys(it.entry().key, iters[minIdx].entry().key) {
			case -1:
				minIdx = i
			case 0:
				// Same key in two tables: i is newer iff i > minIdx
				// (tables are ordered oldest first). Drop the older.
				if i > minIdx {
					if err := iters[minIdx].advance(); err != nil {
						return err
					}
					minIdx = i
				} else if err := it.advance(); err != nil {
					return err
				}
			}
		}
		if minIdx < 0 {
			break
		}
		e := iters[minIdx].entry()
		if err := iters[minIdx].advance(); err != nil {
			return err
		}
		// Another older iterator may still hold this key; skip those.
		for i, it := range iters {
			if i == minIdx || !it.valid() {
				continue
			}
			for it.valid() && cmpKeys(it.entry().key, e.key) == 0 {
				if err := it.advance(); err != nil {
					return err
				}
			}
		}
		if !e.tombstone {
			merged = append(merged, e)
		}
	}

	num := db.nextNum
	path := db.sstPath(num)
	if _, err := writeSSTable(path, merged); err != nil {
		return err
	}
	newTable, err := openSSTable(path, num, db.cache)
	if err != nil {
		return err
	}
	db.nextNum++

	old := db.tables
	db.tables = []*sstable{newTable}
	for _, t := range old {
		if err := t.close(); err != nil {
			return fmt.Errorf("kvstore: close old sstable: %w", err)
		}
		if err := os.Remove(t.path); err != nil {
			return fmt.Errorf("kvstore: remove old sstable: %w", err)
		}
		db.cache.dropTable(t.num)
	}
	if err := seglog.SyncDir(db.dir); err != nil {
		return fmt.Errorf("kvstore: sync dir: %w", err)
	}
	db.compactions++
	db.compactionSeconds.ObserveDuration(time.Since(start))
	obslog.L("kvstore").Debug("compaction finished",
		"tables", len(old), "entries", len(merged),
		"duration", time.Since(start).String())
	return nil
}
