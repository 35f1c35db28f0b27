package stream

import (
	"context"
	"testing"
	"time"
)

// loadTuple is the test tuple for the shed gates: timestamped, prioritized,
// deadlined, and optionally unsheddable (a marker).
type loadTuple struct {
	TS       int64
	Val      int
	Prio     int
	Deadline time.Time
	Marker   bool
}

func (l loadTuple) EventTime() int64        { return l.TS }
func (l loadTuple) ShedPriority() int       { return l.Prio }
func (l loadTuple) ShedDeadline() time.Time { return l.Deadline }
func (l loadTuple) Sheddable() bool         { return !l.Marker }

// TestOverloadShedDropExpired checks that a gate with deadline shedding
// engaged drops tuples whose deadline has passed at admission, keeps live ones, counts each shed
// exactly once, and still advances the source watermark past the shed
// tuples (heartbeat-only progress).
func TestOverloadShedDropExpired(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	future := time.Now().Add(time.Hour)
	const n = 100
	items := make([]loadTuple, n)
	for i := range items {
		items[i] = loadTuple{TS: int64(i), Val: i, Deadline: future}
		if i%2 == 1 {
			items[i].Deadline = past
		}
	}
	q := NewQuery("expired")
	q.Overload().SetShedLate(true, 0)
	src := AddSource(q, "src", FromSlice(items), WithShedGate())
	var got []loadTuple
	AddSink(q, "sink", src, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != n/2 {
		t.Fatalf("sink got %d tuples, want %d", len(got), n/2)
	}
	for _, v := range got {
		if v.Val%2 != 0 {
			t.Fatalf("expired tuple %d reached the sink", v.Val)
		}
	}
	stats := q.Metrics().Op("src")
	exp, low := stats.Shed()
	if exp != n/2 || low != 0 {
		t.Fatalf("Shed() = (%d, %d), want (%d, 0)", exp, low, n/2)
	}
	// Exact accounting: delivered + shed == offered.
	if int64(len(got))+exp != n {
		t.Fatalf("delivered %d + shed %d != offered %d", len(got), exp, n)
	}
	if stats.Out() != int64(len(got)) {
		t.Fatalf("Out() = %d, want %d (shed tuples must not count as produced)", stats.Out(), len(got))
	}
	// The last tuple (TS n-1) was expired and shed, yet the watermark must
	// cover it: sheds emit heartbeat-only progress.
	if w, ok := stats.Watermark(); !ok || w != n-1 {
		t.Fatalf("watermark = %d (seen=%v), want %d", w, ok, n-1)
	}
}

// TestOverloadShedDropLowest engages the priority floor, fills the source's
// edge against a gated-open sink, and checks that low-priority tuples are
// dropped while at-or-above-floor tuples block and survive.
func TestOverloadShedDropLowest(t *testing.T) {
	release := make(chan struct{})
	q := NewQuery("lowest", withQueryBatch(1), withQueryLinger(0))
	q.Overload().SetShedLate(false, 1)
	emitted := make(chan struct{}, 16)
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[loadTuple]) error {
		// Two tuples saturate sink-input: one parked in the channel
		// (cap 1), one held by the blocked sink.
		for i := 0; i < 2; i++ {
			if err := emit(loadTuple{TS: int64(i), Val: i, Prio: 5}); err != nil {
				return err
			}
		}
		emitted <- struct{}{}
		// Wait until the sink has the first tuple and the edge holds the
		// second, so the edge is provably full.
		<-release
		// Below the floor on a full edge: shed.
		if err := emit(loadTuple{TS: 2, Val: 2, Prio: 0}); err != nil {
			return err
		}
		// At the floor: must block until the sink drains, then arrive.
		if err := emit(loadTuple{TS: 3, Val: 3, Prio: 1}); err != nil {
			return err
		}
		return nil
	}, withBuffer(1), WithShedGate())
	var got []loadTuple
	first := true
	AddSink(q, "sink", src, func(v loadTuple) error {
		if first {
			first = false
			<-emitted
			release <- struct{}{}
			// Give the source time to shed tuple 2 and park on tuple 3
			// while the edge is still full.
			time.Sleep(50 * time.Millisecond)
		}
		got = append(got, v)
		return nil
	})
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("sink got %d tuples, want 3: %+v", len(got), got)
	}
	for _, v := range got {
		if v.Val == 2 {
			t.Fatalf("low-priority tuple 2 should have been shed, got %+v", got)
		}
	}
	_, low := q.Metrics().Op("src").Shed()
	if low != 1 {
		t.Fatalf("shed lowpri = %d, want 1", low)
	}
}

// TestOverloadShedInertGateIsTransparent checks the zero-cost-off contract: a gate
// under neutral knobs sheds nothing and preserves
// classic blocking semantics and exact delivery.
func TestOverloadShedInertGateIsTransparent(t *testing.T) {
	const n = 500
	items := make([]loadTuple, n)
	for i := range items {
		items[i] = loadTuple{TS: int64(i), Val: i, Deadline: time.Now().Add(-time.Hour)}
	}
	q := NewQuery("inert", withQueryBatch(8))
	src := AddSource(q, "src", FromSlice(items), WithShedGate())
	var got []loadTuple
	AddSink(q, "sink", src, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != n {
		t.Fatalf("sink got %d tuples, want %d (inert gate must not shed)", len(got), n)
	}
	exp, low := q.Metrics().Op("src").Shed()
	if exp+low != 0 {
		t.Fatalf("inert gate shed (%d, %d), want zero", exp, low)
	}
}

// TestOverloadKnobsEngageShedding turns the dynamic drop-expired knob on a
// query whose gate was built inert, proving a controller can start shedding
// at run time without rebuilding the query.
func TestOverloadKnobsEngageShedding(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	const n = 50
	items := make([]loadTuple, n)
	for i := range items {
		items[i] = loadTuple{TS: int64(i), Val: i, Deadline: past}
	}
	q := NewQuery("dynamic")
	q.Overload().SetShedLate(true, 0)
	src := AddSource(q, "src", FromSlice(items), WithShedGate())
	var got []loadTuple
	AddSink(q, "sink", src, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("sink got %d tuples, want 0 (all expired, knob engaged)", len(got))
	}
	exp, _ := q.Metrics().Op("src").Shed()
	if exp != n {
		t.Fatalf("shed expired = %d, want %d", exp, n)
	}
	// Reset returns to neutral.
	q.Overload().Reset()
	if drop, floor := q.Overload().ShedLate(); drop || floor != 0 {
		t.Fatalf("after Reset: ShedLate() = (%v, %d), want (false, 0)", drop, floor)
	}
}

// TestOverloadSinkGateDropsAgedBacklog pins the receive-side gate: tuples that were
// fresh at admission but expired while queued for the sink are shed at the
// sink's doorstep (counted on the sink op, watermark heartbeat intact)
// instead of consuming sink service time.
func TestOverloadSinkGateDropsAgedBacklog(t *testing.T) {
	const n = 20
	release := make(chan struct{})
	items := make([]loadTuple, n)
	deadline := time.Now().Add(50 * time.Millisecond)
	for i := range items {
		items[i] = loadTuple{TS: int64(i), Val: i, Deadline: deadline}
	}
	q := NewQuery("agedsink", withQueryBatch(1), withQueryLinger(0))
	q.Overload().SetShedLate(true, 0)
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[loadTuple]) error {
		// All tuples are fresh at emit time, so an emit-side gate (the source
		// has none) would admit every one of them.
		for _, v := range items {
			if err := emit(v); err != nil {
				return err
			}
		}
		close(release)
		return nil
	})
	var got []loadTuple
	first := true
	AddSink(q, "sink", src, func(v loadTuple) error {
		if first {
			first = false
			<-release                          // the whole backlog is queued …
			time.Sleep(100 * time.Millisecond) // … and now it is expired
		}
		got = append(got, v)
		return nil
	}, WithShedGate())
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	// The first tuple was serviced (it is what parked the sink); everything
	// dequeued afterwards had aged out and must have been shed.
	if len(got) == 0 || got[0].Val != 0 {
		t.Fatalf("sink first delivery = %+v, want tuple 0", got)
	}
	exp, low := q.Metrics().Op("sink").Shed()
	if low != 0 {
		t.Fatalf("sink shed by wrong reason: lowpri=%d", low)
	}
	if exp == 0 {
		t.Fatal("sink gate shed nothing although the backlog expired in-queue")
	}
	if int64(len(got))+exp != n {
		t.Fatalf("delivered %d + shed %d != offered %d", len(got), exp, n)
	}
	// Heartbeat: the shed tail still advanced the sink's watermark to the
	// last offered event time.
	if w, ok := q.Metrics().Op("sink").Watermark(); !ok || w != n-1 {
		t.Fatalf("sink watermark = %d (seen=%v), want %d", w, ok, n-1)
	}
}

// TestOverloadSinkGateInertIsTransparent: a gated sink delivers everything,
// even long-expired priority-0 tuples, under neutral knobs and under an
// engaged priority floor, which applies only where there is an output edge
// to fill.
func TestOverloadSinkGateInertIsTransparent(t *testing.T) {
	for _, row := range []struct {
		name  string
		floor int
	}{{"neutral", 0}, {"priority floor", 10}} {
		t.Run(row.name, func(t *testing.T) {
			const n = 100
			items := make([]loadTuple, n)
			for i := range items {
				items[i] = loadTuple{TS: int64(i), Val: i, Deadline: time.Now().Add(-time.Hour)}
			}
			q := NewQuery("inertsink", withQueryBatch(8))
			q.Overload().SetShedLate(false, row.floor)
			src := AddSource(q, "src", FromSlice(items))
			var got []loadTuple
			AddSink(q, "sink", src, ToSlice(&got), WithShedGate())
			if err := runQuery(t, q); err != nil {
				t.Fatalf("Run() error = %v", err)
			}
			if len(got) != n {
				t.Fatalf("sink got %d tuples, want %d (the sink gate must not shed)", len(got), n)
			}
			exp, low := q.Metrics().Op("sink").Shed()
			if exp+low != 0 {
				t.Fatalf("sink gate shed (%d, %d), want zero", exp, low)
			}
		})
	}
}

// TestOverloadKnobsBatchBoost verifies the dynamic batch/linger scaling
// applied under overload, including the <=1 reset path.
func TestOverloadKnobsBatchBoost(t *testing.T) {
	var k OverloadKnobs
	if k.boostedMax(8) != 8 {
		t.Fatalf("neutral knobs must not scale")
	}
	k.SetBatchBoost(4, time.Millisecond)
	if got := k.boostedMax(8); got != 32 {
		t.Fatalf("boostedMax(8) = %d, want 32", got)
	}
	if got := k.boostedLinger(time.Millisecond); got != 2*time.Millisecond {
		t.Fatalf("boostedLinger(1ms) = %v, want 2ms", got)
	}
	// Zero linger stays zero (lingering must not be introduced where the
	// builder disabled it).
	if got := k.boostedLinger(0); got != 0 {
		t.Fatalf("boostedLinger(0) = %v, want 0", got)
	}
	k.SetBatchBoost(0, 0)
	if got := k.boostedMax(8); got != 8 {
		t.Fatalf("after reset boostedMax(8) = %d, want 8", got)
	}
	var nilKnobs *OverloadKnobs
	if nilKnobs.boostedMax(8) != 8 || nilKnobs.boostedLinger(time.Second) != time.Second {
		t.Fatalf("nil knobs must be neutral")
	}
}
