package kvstore

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func benchDB(b *testing.B, opts ...Option) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkPut(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutSync(b *testing.B) {
	db := benchDB(b, WithSyncWrites(true))
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutSyncParallel measures concurrent durable writes — the group
// commit target workload: many writers requesting fsync durability at once
// should share one disk round-trip per cohort instead of serializing on one
// fsync each.
func BenchmarkPutSyncParallel(b *testing.B) {
	db := benchDB(b, WithSyncWrites(true))
	val := make([]byte, 128)
	var seq atomic.Uint64
	// Cohorts form from goroutines overlapping a leader's fsync, which is a
	// blocking syscall — oversubscribe so the effect shows on any core count.
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if err := db.Put([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	commits := db.walStats.Commits.Load()
	syncs := db.walStats.Syncs.Load()
	if commits > 0 {
		b.ReportMetric(float64(commits-syncs)/float64(commits), "fsyncs-coalesced/op")
	}
}

func BenchmarkBatchApply(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch Batch
		for j := 0; j < 100; j++ {
			batch.Put([]byte(fmt.Sprintf("key-%09d", i*100+j)), val)
		}
		if err := db.Apply(&batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*100)/b.Elapsed().Seconds(), "puts/s")
}

func BenchmarkGetMemtable(b *testing.B) {
	db := benchDB(b)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetSSTable(b *testing.B) {
	db := benchDB(b)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetAfterCompaction(b *testing.B) {
	db := benchDB(b)
	const n = 10000
	for round := 0; round < 4; round++ {
		for i := round; i < n; i += 4 {
			if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value")); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%06d", rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetMissViaBloom(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < 10000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("absent-%06d", i))); err != ErrNotFound {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < 10000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := db.Scan(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != 10000 {
			b.Fatalf("scanned %d", n)
		}
	}
	b.ReportMetric(float64(b.N*10000)/b.Elapsed().Seconds(), "keys/s")
}
