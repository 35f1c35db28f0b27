package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndFinish(t *testing.T) {
	tr := NewTrace(1, "pipe")
	tr.Record("src", 2*time.Millisecond)
	tr.Record("map", 0) // floored to 1ns, never invisible
	if !tr.Finish() {
		t.Fatal("first Finish returned false")
	}
	if tr.Finish() {
		t.Fatal("second Finish returned true; must be idempotent")
	}
	s := tr.Snapshot()
	if !s.Finished || s.Total <= 0 {
		t.Fatalf("snapshot not finished: %+v", s)
	}
	if len(s.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(s.Spans))
	}
	for _, sp := range s.Spans {
		if sp.Duration <= 0 {
			t.Errorf("span %s has non-positive duration %v", sp.Op, sp.Duration)
		}
		if sp.Start < 0 {
			t.Errorf("span %s has negative start %v", sp.Op, sp.Start)
		}
	}
	// Records after Finish are dropped: the trace is already reported.
	tr.Record("late", time.Millisecond)
	if got := len(tr.Snapshot().Spans); got != 2 {
		t.Errorf("spans after late record = %d, want 2", got)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Record("op", time.Millisecond) // must not panic
	if tr.Finish() {
		t.Error("nil Finish returned true")
	}
}

func TestTraceBufferSlowestAndRecent(t *testing.T) {
	b := NewTraceBuffer(4)
	mk := func(id uint64, total time.Duration) *Trace {
		tr := NewTrace(id, "q")
		tr.mu.Lock()
		tr.finished = true
		tr.total = total
		tr.mu.Unlock()
		return tr
	}
	for i := 1; i <= 6; i++ {
		b.Add(mk(uint64(i), time.Duration(i)*time.Millisecond))
	}
	if got := b.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	slow := b.Slowest(2)
	if len(slow) != 2 || slow[0].ID != 6 || slow[1].ID != 5 {
		t.Fatalf("Slowest(2) = %+v, want ids 6,5", slow)
	}
	// The ring keeps the four most recent traces: 1 and 2 were evicted.
	var ids []uint64
	for _, s := range b.Slowest(0) {
		ids = append(ids, s.ID)
	}
	if fmt.Sprint(ids) != "[6 5 4 3]" {
		t.Fatalf("buffered ids = %v, want [6 5 4 3]", ids)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(3)
	var hits int
	for i := 0; i < 30; i++ {
		if _, ok := s.Sample(); ok {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("1-in-3 sampler hit %d of 30, want 10", hits)
	}
	if _, ok := NewSampler(0).Sample(); ok {
		t.Error("disabled sampler sampled")
	}
	var nilS *Sampler
	if _, ok := nilS.Sample(); ok {
		t.Error("nil sampler sampled")
	}
	// Ids are unique across concurrent samplers of the same instance.
	s2 := NewSampler(1)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id, ok := s2.Sample()
				if !ok {
					t.Error("1-in-1 sampler skipped")
					return
				}
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate trace id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace(9, "fanout")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Record("op", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Snapshot().Spans); got != 8*200 {
		t.Fatalf("spans = %d, want %d", got, 8*200)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace(10, "wide-fanout")
	for i := 0; i < maxSpansPerTrace+50; i++ {
		tr.Record("cell", time.Microsecond)
	}
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", len(snap.Spans), maxSpansPerTrace)
	}
	if snap.DroppedSpans != 50 {
		t.Fatalf("DroppedSpans = %d, want 50", snap.DroppedSpans)
	}
}
