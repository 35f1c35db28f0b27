package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"strata/internal/otimage"
	"strata/internal/pubsub"
	"strata/internal/stream"
)

// opNames lists the operators of fw's query.
func opNames(fw *Framework) map[string]bool {
	names := make(map[string]bool)
	for _, s := range fw.Query().Metrics().Snapshot() {
		names[s.Name] = true
	}
	return names
}

// specimensOf is a partition function emitting n specimens per layer.
func specimensOf(n int) PartitionFunc {
	return func(t *EventTuple, emit func(*EventTuple) error) error {
		for i := 0; i < n; i++ {
			if err := emit(&EventTuple{Specimen: fmt.Sprintf("s%d", i)}); err != nil {
				return err
			}
		}
		return nil
	}
}

func passThrough(t *EventTuple, emit func(*EventTuple) error) error { return emit(t) }

// TestStageChainCompilesOneOperatorPerBranch: consecutive Partition and
// DetectEvent stages of equal parallelism become one operator per branch,
// named by their stage names joined with "+", and a correlate over them
// still sees every layer closed. The first stage takes whole layers, so it
// ends its chain and the next one reshuffles its output on (job, specimen).
func TestStageChainCompilesOneOperatorPerBranch(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("src", layersSource("j", 4, nil))
	spec := fw.Partition("spec", src, specimensOf(3), WithParallelism(2))
	cell := fw.Partition("cell", spec, passThrough, WithParallelism(2))
	sub := fw.Partition("sub", cell, passThrough, WithParallelism(2))
	label := fw.DetectEvent("label", sub, passThrough, WithParallelism(2))
	cor := fw.CorrelateEvents("out", label, 1, func(w CorrelateWindow, emit func(EventTuple) error) error {
		return emit(EventTuple{KV: map[string]any{"n": int64(len(w.Events))}})
	}, WithParallelism(2))
	results := 0
	fw.Deliver("expert", cor, func(t EventTuple) error {
		if n, _ := t.GetInt("n"); n != 1 {
			return fmt.Errorf("window of %s/%d holds %d events, want 1", t.Specimen, t.Layer, n)
		}
		results++
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if results != 12 { // 4 layers × 3 specimens
		t.Fatalf("delivered %d results, want 12", results)
	}
	ops := opNames(fw)
	for _, want := range []string{"spec.0", "spec.1", "cell.shuffle", "cell+sub+label.0", "cell+sub+label.1", "out.0", "out.1"} {
		if !ops[want] {
			t.Errorf("no operator %q in %v", want, ops)
		}
	}
	for _, stage := range []string{"spec+cell+sub+label.0", "cell.0", "sub.0", "label.0", "out.shuffle"} {
		if ops[stage] {
			t.Errorf("operator %q compiled: %v", stage, ops)
		}
	}
}

// TestParallelStagesSpreadSpecimens drives one job whose layers split into
// 12 specimens through Partition, Partition, DetectEvent and CorrelateEvents
// at parallelism 2. The layer stage sees every layer on one branch, but the
// specimens it emits must spread over both branches of the stages behind
// it, each specimen on exactly one branch. Specimen i yields 2^i tuples per
// layer on each branch it reaches (2^i - 1 cells and its end-of-layer
// marker into the detect chain, 2^i results out of the correlate), so a
// branch's output count per layer is the bit set of its specimens.
func TestParallelStagesSpreadSpecimens(t *testing.T) {
	const layers, specimens = 3, 12
	all := uint64(1)<<specimens - 1
	fw := newTestFramework(t)
	src := fw.AddSource("src", layersSource("j", layers, nil))
	spec := fw.Partition("spec", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		for i := 0; i < specimens; i++ {
			if err := emit(&EventTuple{Specimen: fmt.Sprintf("s%02d", i), KV: map[string]any{"i": int64(i)}}); err != nil {
				return err
			}
		}
		return nil
	}, WithParallelism(2))
	cell := fw.Partition("cell", spec, func(t *EventTuple, emit func(*EventTuple) error) error {
		i, _ := t.GetInt("i")
		for c := 1; c < 1<<i; c++ {
			if err := emit(&EventTuple{Specimen: t.Specimen, Portion: fmt.Sprintf("c%d", c)}); err != nil {
				return err
			}
		}
		return nil
	}, WithParallelism(2))
	label := fw.DetectEvent("label", cell, passThrough, WithParallelism(2))
	cor := fw.CorrelateEvents("out", label, 1, func(w CorrelateWindow, emit func(EventTuple) error) error {
		var i int
		if _, err := fmt.Sscanf(w.Specimen, "s%d", &i); err != nil {
			return err
		}
		if len(w.Events) != 1<<i-1 {
			return fmt.Errorf("window of %s/%d holds %d events, want %d", w.Specimen, w.Layer, len(w.Events), 1<<i-1)
		}
		for r := 0; r < 1<<i; r++ {
			if err := emit(EventTuple{}); err != nil {
				return err
			}
		}
		return nil
	}, WithParallelism(2))
	results := make(map[string]int)
	fw.Deliver("expert", cor, func(t EventTuple) error {
		results[fmt.Sprintf("%s/%d", t.Specimen, t.Layer)]++
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(results) != layers*specimens {
		t.Fatalf("results for %d (specimen, layer) windows, want %d", len(results), layers*specimens)
	}
	out := make(map[string]int64)
	for _, s := range fw.Query().Metrics().Snapshot() {
		out[s.Name] = s.Out
	}
	// sets returns the specimen bit set of each branch of op.
	sets := func(op string) [2]uint64 {
		var bs [2]uint64
		for b := range bs {
			n := out[fmt.Sprintf("%s.%d", op, b)]
			if n == 0 || n%layers != 0 {
				t.Fatalf("%s.%d emitted %d tuples, want a non-zero multiple of %d layers; ops %v", op, b, n, layers, out)
			}
			bs[b] = uint64(n / layers)
		}
		if bs[0]&bs[1] != 0 || bs[0]|bs[1] != all {
			t.Fatalf("%s branches hold specimen sets %012b and %012b, want disjoint sets covering %012b", op, bs[0], bs[1], all)
		}
		return bs
	}
	if detect, cor := sets("cell+label"), sets("out"); detect != cor {
		t.Fatalf("a specimen's detect branch is not its correlate branch: %012b vs %012b", detect, cor)
	}
}

// TestStageChainUnconsumedStageDangles: a stage nothing consumes is still
// compiled before Run, so Run reports its output as dangling.
func TestStageChainUnconsumedStageDangles(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("src", layersSource("j", 2, nil))
	fw.Partition("p", src, specimensOf(1))
	if err := runFW(t, fw); !errors.Is(err, stream.ErrDanglingStream) {
		t.Fatalf("Run() = %v, want ErrDanglingStream", err)
	}
}

// TestStageChainRefConsumedTwice: a stage output feeding two consumers is a
// build error whether both consumers extend its chain or one takes it as a
// stream.
func TestStageChainRefConsumedTwice(t *testing.T) {
	t.Run("two-stages", func(t *testing.T) {
		fw := newTestFramework(t)
		src := fw.AddSource("src", layersSource("j", 2, nil))
		p := fw.Partition("p", src, specimensOf(1))
		fw.Deliver("out1", fw.DetectEvent("d1", p, passThrough), func(EventTuple) error { return nil })
		fw.Deliver("out2", fw.DetectEvent("d2", p, passThrough), func(EventTuple) error { return nil })
		if err := fw.Err(); !errors.Is(err, stream.ErrStreamConsumed) {
			t.Fatalf("Err() = %v, want ErrStreamConsumed", err)
		}
	})
	t.Run("stage-and-sink", func(t *testing.T) {
		fw := newTestFramework(t)
		src := fw.AddSource("src", layersSource("j", 2, nil))
		p := fw.Partition("p", src, specimensOf(1))
		fw.Deliver("out1", fw.DetectEvent("d", p, passThrough), func(EventTuple) error { return nil })
		fw.Deliver("out2", p, func(EventTuple) error { return nil })
		if err := fw.Err(); !errors.Is(err, stream.ErrStreamConsumed) {
			t.Fatalf("Err() = %v, want ErrStreamConsumed", err)
		}
	})
}

// TestStageChainParallelismChangeShuffles: a stage with a different
// parallelism ends the chain and re-partitions its input, and no specimen's
// tuples are lost or duplicated on the way.
func TestStageChainParallelismChangeShuffles(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("src", layersSource("j", 5, nil))
	p := fw.Partition("p", src, specimensOf(4), WithParallelism(2))
	d := fw.DetectEvent("d", p, passThrough, WithParallelism(3))
	seen := make(map[string]int)
	fw.Deliver("out", d, func(t EventTuple) error {
		seen[fmt.Sprintf("%s/%d", t.Specimen, t.Layer)]++
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("delivered %d distinct (specimen, layer) tuples, want 20", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("%s delivered %d times", k, n)
		}
	}
	ops := opNames(fw)
	for _, want := range []string{"p.0", "p.1", "d.shuffle", "d.0", "d.1", "d.2"} {
		if !ops[want] {
			t.Errorf("no operator %q in %v", want, ops)
		}
	}
}

// TestStageChainEventTapPublishesOnce: with a broker attached, the event
// connector taps the chain's detect output, publishing every detect output
// exactly once.
func TestStageChainEventTapPublishesOnce(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	evSub, err := broker.Subscribe(EventSubjectPrefix+".>", pubsub.WithSubBuffer(1000))
	if err != nil {
		t.Fatal(err)
	}
	fw := newTestFramework(t, WithBroker(broker))
	src := fw.AddSource("src", layersSource("J", 6, nil))
	spec := fw.Partition("spec", src, specimensOf(3), WithParallelism(2))
	p := fw.Partition("p", spec, passThrough, WithParallelism(2))
	d := fw.DetectEvent("d", p, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{KV: map[string]any{"id": fmt.Sprintf("%s/%d", t.Specimen, t.Layer)}})
	}, WithParallelism(2))
	delivered := 0
	fw.Deliver("out", d, func(EventTuple) error { delivered++; return nil })
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	published := make(map[string]int)
	for _, m := range drainSub(evSub) {
		tup, err := DecodeTuple(m.Data)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := tup.GetString("id")
		published[id]++
	}
	if delivered != 18 || len(published) != 18 {
		t.Fatalf("delivered %d, published %d distinct events, want 18 each", delivered, len(published))
	}
	for id, n := range published {
		if n != 1 {
			t.Fatalf("event %s published %d times", id, n)
		}
	}
	if ops := opNames(fw); !ops["p+d.0"] || !ops["event-connector.d.0"] {
		t.Fatalf("want the chain p+d tapped by event-connector.d, got %v", ops)
	}
}

// borrowedRun runs src → spec (3 specimens) → cell (5 cells each) →
// label → a one-layer correlate, and returns every window's summary in
// delivery order per specimen. spec and cell either emit fresh tuples or
// reuse one and poison it after each emit returns; label is the detect
// stage under test. A window lists every event it holds, so a tuple the
// framework kept past an emit shows up as poison, a wrong cell or a
// missing layer.
func borrowedRun(t *testing.T, par int, reuse bool, label DetectFunc) map[string][]string {
	t.Helper()
	fw := newTestFramework(t)
	// emitEach emits n tuples built by mk, either fresh or through one
	// reused tuple that is poisoned as soon as each emit returns.
	emitEach := func(n int, emit func(*EventTuple) error, mk func(i int) EventTuple) error {
		var o EventTuple
		for i := 0; i < n; i++ {
			fresh := mk(i)
			out := &fresh
			if reuse {
				o = fresh
				out = &o
			}
			if err := emit(out); err != nil {
				return err
			}
			if reuse {
				o = EventTuple{Specimen: "poison", Portion: "poison", Layer: -1, KV: map[string]any{"c": int64(-1)}}
			}
		}
		return nil
	}
	src := fw.AddSource("src", layersSource("j", 6, nil))
	spec := fw.Partition("spec", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emitEach(3, emit, func(i int) EventTuple { return EventTuple{Specimen: fmt.Sprintf("s%d", i)} })
	}, WithParallelism(par))
	cell := fw.Partition("cell", spec, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emitEach(5, emit, func(c int) EventTuple {
			return EventTuple{
				Specimen: t.Specimen,
				Portion:  fmt.Sprintf("c%d", c),
				KV:       map[string]any{"c": int64(c)},
				Cell:     otimage.Cell{Col: c, Region: otimage.Rect{X1: 1, Y1: 1}, Mean: float64(100*t.Layer + c)},
			}
		})
	}, WithParallelism(par))
	det := fw.DetectEvent("label", cell, label, WithParallelism(par))
	cor := fw.CorrelateEvents("out", det, 1, func(w CorrelateWindow, emit func(EventTuple) error) error {
		var b strings.Builder
		for _, e := range w.Events {
			c, _ := e.GetInt("c")
			fmt.Fprintf(&b, " %s/%d/%s:%d:%g", e.Specimen, e.Layer, e.Portion, c, e.Cell.Mean)
		}
		return emit(EventTuple{KV: map[string]any{"events": b.String()}})
	}, WithParallelism(par))
	var mu sync.Mutex
	got := map[string][]string{}
	fw.Deliver("expert", cor, func(t EventTuple) error {
		events, _ := t.GetString("events")
		mu.Lock()
		defer mu.Unlock()
		got[t.Specimen] = append(got[t.Specimen], fmt.Sprintf("%d:%s", t.Layer, events))
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	return got
}

// labelEven passes even cells on as they are and emits a new tuple for odd
// ones: both a borrowed input and a stage's own output leave the chain.
func labelEven(t *EventTuple, emit func(*EventTuple) error) error {
	c, _ := t.GetInt("c")
	if c%2 == 0 {
		return emit(t)
	}
	return emit(&EventTuple{Portion: t.Portion + "'", KV: map[string]any{"c": 10 * c}, Cell: t.Cell})
}

// TestStageChainBorrowedTuples pins the borrowed-pointer contract of
// PartitionFunc and DetectFunc: an emitted tuple is the framework's only
// until emit returns, so a Partition that reuses one output tuple, and
// overwrites it once each emit returns, must give the same results as one
// that emits fresh tuples — chained or not, at parallelism 1 and 2. A stage
// that keeps its input past the call breaks the contract, and the
// comparison must catch it.
func TestStageChainBorrowedTuples(t *testing.T) {
	for _, par := range []int{1, 2} {
		for _, maxStages := range []int{0, 1} {
			restore := SetMaxChainStages(maxStages)
			fresh := borrowedRun(t, par, false, labelEven)
			reused := borrowedRun(t, par, true, labelEven)
			restore()
			if len(fresh) != 3 {
				t.Fatalf("parallelism %d, max chain %d: results for %d specimens, want 3", par, maxStages, len(fresh))
			}
			for sp, want := range fresh {
				if len(want) != 6 || strings.Contains(strings.Join(want, ""), "poison") {
					t.Fatalf("parallelism %d, max chain %d, %s: fresh run delivered %q", par, maxStages, sp, want)
				}
				if got := reused[sp]; !slices.Equal(got, want) {
					t.Fatalf("parallelism %d, max chain %d, %s:\nreused %q\nfresh  %q", par, maxStages, sp, got, want)
				}
			}
		}
	}

	// A label stage that keeps the pointer it was handed and reads it on
	// the next call: with fresh tuples it reads the previous cell, with a
	// reused one the poison written after emit returned.
	var prev *EventTuple
	keeps := func(t *EventTuple, emit func(*EventTuple) error) error {
		if prev != nil && prev.Layer == t.Layer && prev.Specimen == t.Specimen {
			if err := emit(&EventTuple{Portion: prev.Portion, KV: map[string]any{"c": int64(0)}, Cell: prev.Cell}); err != nil {
				return err
			}
		}
		prev = t
		return nil
	}
	fresh := borrowedRun(t, 1, false, keeps)
	prev = nil
	reused := borrowedRun(t, 1, true, keeps)
	if maps.EqualFunc(fresh, reused, slices.Equal[[]string]) {
		t.Fatalf("a stage keeping its input past the call went unnoticed: %q", fresh)
	}
}

// BenchmarkStageChain prices a chain's depth: one Partition that splits each
// layer into cell tuples, followed by 0, 3 or 7 pass-through DetectEvents,
// over 100k cell tuples per run. A chain is one operator whatever its
// depth, so each extra stage should cost one function call per tuple, not a
// channel hop.
func BenchmarkStageChain(b *testing.B) {
	const layers, cellsPerLayer = 100, 1000
	// The partition reuses one output tuple, as the borrowed-pointer
	// contract allows: it sets the identity and the cell, and the stage
	// fills the lineage on every emit.
	setCell := func(o *EventTuple, layer, i int) {
		o.Specimen = "spec01"
		o.Portion = "c"
		o.Cell = otimage.Cell{
			Col: i % 40, Row: i / 40,
			Region: otimage.Rect{X0: i % 40, Y0: i / 40, X1: i%40 + 1, Y1: i/40 + 1},
			Mean:   float64(layer + i),
		}
	}
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fw, err := New(WithStoreDir(b.TempDir()))
				if err != nil {
					b.Fatal(err)
				}
				src := fw.AddSource("src", layersSource("j", layers, nil))
				var o EventTuple
				ref := fw.Partition("cells", src, func(t *EventTuple, emit func(*EventTuple) error) error {
					for c := 0; c < cellsPerLayer; c++ {
						setCell(&o, t.Layer, c)
						if err := emit(&o); err != nil {
							return err
						}
					}
					return nil
				})
				for d := 1; d < depth; d++ {
					ref = fw.DetectEvent(fmt.Sprintf("d%d", d), ref, passThrough)
				}
				fw.Deliver("out", ref, func(EventTuple) error { return nil })
				b.StartTimer()
				start := time.Now()
				if err := fw.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(start)
				b.StopTimer()
				fw.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(layers*cellsPerLayer*b.N)/elapsed.Seconds(), "tuples/s")
		})
	}
}
