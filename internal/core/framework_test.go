package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"strata/internal/pubsub"
)

func newTestFramework(t *testing.T, opts ...Option) *Framework {
	t.Helper()
	opts = append([]Option{WithStoreDir(t.TempDir())}, opts...)
	fw, err := New(opts...)
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	t.Cleanup(func() { fw.Close() })
	return fw
}

func runFW(t *testing.T, fw *Framework) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return fw.Run(ctx)
}

// layersSource emits one tuple per layer for nLayers layers of the given
// job, with a monotone synthetic event time.
func layersSource(job string, nLayers int, kv func(layer int) map[string]any) CollectFunc {
	return func(ctx context.Context, emit func(EventTuple) error) error {
		base := time.UnixMicro(1_000_000)
		for l := 1; l <= nLayers; l++ {
			var m map[string]any
			if kv != nil {
				m = kv(l)
			}
			err := emit(EventTuple{
				TS:    base.Add(time.Duration(l) * time.Second),
				Job:   job,
				Layer: l,
				KV:    m,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func TestNewRequiresExactlyOneStore(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New() without store should fail")
	}
	fw := newTestFramework(t)
	if _, err := New(WithStoreDir(t.TempDir()), WithStore(fw.store)); err == nil {
		t.Fatal("New() with both store options should fail")
	}
}

func TestStoreGetRoundTrip(t *testing.T) {
	fw := newTestFramework(t)
	if err := fw.Store("threshold/job1", []byte("42")); err != nil {
		t.Fatal(err)
	}
	v, err := fw.Get("threshold/job1")
	if err != nil || string(v) != "42" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := fw.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := fw.StoreFloat("f", 2.5); err != nil {
		t.Fatal(err)
	}
	f, err := fw.GetFloat("f")
	if err != nil || f != 2.5 {
		t.Fatalf("GetFloat = %g, %v", f, err)
	}
	if _, err := fw.GetFloat("threshold/job1"); err == nil {
		t.Fatal("GetFloat on non-float should fail")
	}
	var keys []string
	if err := fw.ScanPrefix("threshold/", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "threshold/job1" {
		t.Fatalf("ScanPrefix keys = %v", keys)
	}
}

func TestSourceToDeliver(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("ot", layersSource("j", 5, nil))
	var got []EventTuple
	fw.Deliver("out", src, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d tuples, want 5", len(got))
	}
	for i, tu := range got {
		if tu.Layer != i+1 || tu.Job != "j" {
			t.Fatalf("tuple %d = %+v", i, tu)
		}
		if tu.Specimen != DefaultSpecimen || tu.Portion != DefaultPortion {
			t.Fatalf("defaults not applied: %+v", tu)
		}
		if tu.AvailableAt.IsZero() {
			t.Fatal("AvailableAt not stamped")
		}
	}
}

func TestFuseSameTau(t *testing.T) {
	fw := newTestFramework(t)
	ot := fw.AddSource("ot", layersSource("j", 4, func(l int) map[string]any {
		return map[string]any{"img": fmt.Sprintf("img%d", l)}
	}))
	pp := fw.AddSource("pp", layersSource("j", 4, func(l int) map[string]any {
		return map[string]any{"power": float64(100 + l)}
	}))
	fused := fw.Fuse("ot&pp", ot, pp)
	var got []EventTuple
	fw.Deliver("out", fused, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("fused %d tuples, want 4", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Layer < got[j].Layer })
	for i, tu := range got {
		img, _ := tu.GetString("img")
		power, _ := tu.GetFloat("power")
		if img != fmt.Sprintf("img%d", i+1) || power != float64(100+i+1) {
			t.Fatalf("layer %d payload: img=%q power=%g", tu.Layer, img, power)
		}
	}
}

func TestFuseWindowTolerance(t *testing.T) {
	fw := newTestFramework(t)
	base := time.UnixMicro(1_000_000)
	mk := func(job string, layer int, off time.Duration, kv map[string]any) EventTuple {
		return EventTuple{TS: base.Add(time.Duration(layer)*time.Second + off), Job: job, Layer: layer, KV: kv}
	}
	s1 := fw.AddSource("s1", func(ctx context.Context, emit func(EventTuple) error) error {
		for l := 1; l <= 3; l++ {
			if err := emit(mk("j", l, 0, map[string]any{"a": int64(l)})); err != nil {
				return err
			}
		}
		return nil
	})
	// Second source lags 200 ms behind the first; only a windowed fuse
	// pairs them.
	s2 := fw.AddSource("s2", func(ctx context.Context, emit func(EventTuple) error) error {
		for l := 1; l <= 3; l++ {
			if err := emit(mk("j", l, 200*time.Millisecond, map[string]any{"b": int64(l * 10)})); err != nil {
				return err
			}
		}
		return nil
	})
	fused := fw.Fuse("f", s1, s2, FuseWindow(time.Second))
	var got []EventTuple
	fw.Deliver("out", fused, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("fused %d tuples, want 3", len(got))
	}
	for _, tu := range got {
		a, _ := tu.GetInt("a")
		b, _ := tu.GetInt("b")
		if b != a*10 {
			t.Fatalf("wrong pairing: a=%d b=%d", a, b)
		}
	}
}

func TestFuseSameTauRejectsSkew(t *testing.T) {
	fw := newTestFramework(t)
	base := time.UnixMicro(1_000_000)
	s1 := fw.AddSource("s1", func(ctx context.Context, emit func(EventTuple) error) error {
		return emit(EventTuple{TS: base, Job: "j", Layer: 1})
	})
	s2 := fw.AddSource("s2", func(ctx context.Context, emit func(EventTuple) error) error {
		return emit(EventTuple{TS: base.Add(time.Millisecond), Job: "j", Layer: 1})
	})
	fused := fw.Fuse("f", s1, s2)
	count := 0
	fw.Deliver("out", fused, func(EventTuple) error {
		count++
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("same-τ fuse paired skewed tuples (%d)", count)
	}
}

func TestFuseComposition(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 1, nil))
	part := fw.Partition("p", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{Specimen: "x", Portion: "y"})
	})
	fw.Fuse("bad", src, part) // partition output is not fusable
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v, want ErrBadPipeline", err)
	}
}

func TestPartitionSetsMetadataAndMarkers(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("ot", layersSource("j", 3, nil))
	part := fw.Partition("spec", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		for s := 0; s < 2; s++ {
			err := emit(&EventTuple{
				Specimen: fmt.Sprintf("spec%d", s),
				Portion:  DefaultPortion,
				KV:       map[string]any{"n": int64(s)},
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	var got []EventTuple
	fw.Deliver("out", part, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	// Markers are filtered by Deliver: 3 layers × 2 specimens.
	if len(got) != 6 {
		t.Fatalf("delivered %d tuples, want 6", len(got))
	}
	for _, tu := range got {
		if tu.Job != "j" || tu.Layer < 1 || tu.Layer > 3 {
			t.Fatalf("metadata not copied: %+v", tu)
		}
		if tu.Specimen != "spec0" && tu.Specimen != "spec1" {
			t.Fatalf("specimen not set: %+v", tu)
		}
		if tu.AvailableAt.IsZero() {
			t.Fatal("AvailableAt not propagated")
		}
	}
}

func TestDetectEventFilters(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("ot", layersSource("j", 10, func(l int) map[string]any {
		return map[string]any{"temp": float64(l * 10)}
	}))
	det := fw.DetectEvent("hot", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		temp, _ := t.GetFloat("temp")
		if temp <= 50 {
			return nil
		}
		return emit(&EventTuple{KV: map[string]any{"overheat": temp}})
	})
	var got []EventTuple
	fw.Deliver("out", det, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 { // layers 6..10
		t.Fatalf("detected %d events, want 5", len(got))
	}
	for _, tu := range got {
		if tu.Layer <= 5 {
			t.Fatalf("event from cold layer %d", tu.Layer)
		}
		if tu.Specimen != DefaultSpecimen {
			t.Fatalf("specimen default missing: %+v", tu)
		}
	}
}

// detectThresholdFromStore exercises Store/Get from inside a UDF.
func TestDetectUsesKVStore(t *testing.T) {
	fw := newTestFramework(t)
	if err := fw.StoreFloat("threshold", 25); err != nil {
		t.Fatal(err)
	}
	src := fw.AddSource("ot", layersSource("j", 5, func(l int) map[string]any {
		return map[string]any{"v": float64(l * 10)}
	}))
	det := fw.DetectEvent("d", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		thr, err := fw.GetFloat("threshold")
		if err != nil {
			return err
		}
		if v, _ := t.GetFloat("v"); v > thr {
			return emit(&EventTuple{})
		}
		return nil
	})
	count := 0
	fw.Deliver("out", det, func(EventTuple) error { count++; return nil })
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if count != 3 { // layers 3,4,5 exceed 25
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestCorrelateEventsWindowsAcrossLayers(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("ot", layersSource("j", 6, nil))
	part := fw.Partition("spec", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{Specimen: "A", Portion: DefaultPortion})
	})
	det := fw.DetectEvent("ev", part, func(t *EventTuple, emit func(*EventTuple) error) error {
		// One event per layer, tagged with its layer.
		return emit(&EventTuple{KV: map[string]any{"src_layer": int64(t.Layer)}})
	})
	const L = 3
	type window struct {
		layer  int
		events []int64
	}
	var wins []window
	cor := fw.CorrelateEvents("cor", det, L, func(w CorrelateWindow, emit func(EventTuple) error) error {
		var evs []int64
		for _, e := range w.Events {
			l, _ := e.GetInt("src_layer")
			evs = append(evs, l)
		}
		wins = append(wins, window{layer: w.Layer, events: evs})
		return emit(EventTuple{KV: map[string]any{"n": int64(len(evs))}})
	})
	var results []EventTuple
	fw.Deliver("out", cor, func(t EventTuple) error {
		results = append(results, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 6 {
		t.Fatalf("got %d windows, want 6 (one per layer)", len(wins))
	}
	for _, w := range wins {
		lo := w.layer - L + 1
		if lo < 1 {
			lo = 1
		}
		wantN := w.layer - lo + 1
		if len(w.events) != wantN {
			t.Fatalf("layer %d window has %d events, want %d (%v)", w.layer, len(w.events), wantN, w.events)
		}
		for _, e := range w.events {
			if int(e) < lo || int(e) > w.layer {
				t.Fatalf("layer %d window contains event from layer %d", w.layer, e)
			}
		}
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	for _, r := range results {
		if r.Specimen != "A" || r.Job != "j" {
			t.Fatalf("result metadata: %+v", r)
		}
	}
}

func TestCorrelateRequiresDetectInput(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 1, nil))
	fw.CorrelateEvents("c", src, 5, func(w CorrelateWindow, emit func(EventTuple) error) error { return nil })
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v, want ErrBadPipeline", err)
	}
}

func TestCorrelateRejectsBadL(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 1, nil))
	det := fw.DetectEvent("d", src, func(t *EventTuple, emit func(*EventTuple) error) error { return nil })
	fw.CorrelateEvents("c", det, 0, func(w CorrelateWindow, emit func(EventTuple) error) error { return nil })
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v, want ErrBadPipeline", err)
	}
}

func TestPipelineParallelismEquivalence(t *testing.T) {
	run := func(par int) map[string]int {
		fw := newTestFramework(t)
		src := fw.AddSource("ot", layersSource("j", 8, nil))
		part := fw.Partition("spec", src, func(t *EventTuple, emit func(*EventTuple) error) error {
			for s := 0; s < 4; s++ {
				if err := emit(&EventTuple{Specimen: fmt.Sprintf("s%d", s)}); err != nil {
					return err
				}
			}
			return nil
		})
		det := fw.DetectEvent("ev", part, func(t *EventTuple, emit func(*EventTuple) error) error {
			if (t.Layer+len(t.Specimen))%2 == 0 {
				return emit(&EventTuple{})
			}
			return nil
		}, WithParallelism(par))
		cor := fw.CorrelateEvents("cor", det, 2, func(w CorrelateWindow, emit func(EventTuple) error) error {
			return emit(EventTuple{KV: map[string]any{"n": int64(len(w.Events))}})
		}, WithParallelism(par))
		counts := map[string]int{}
		var mu sync.Mutex
		fw.Deliver("out", cor, func(t EventTuple) error {
			n, _ := t.GetInt("n")
			mu.Lock()
			counts[fmt.Sprintf("%s/%d", t.Specimen, t.Layer)] = int(n)
			mu.Unlock()
			return nil
		})
		if err := runFW(t, fw); err != nil {
			t.Fatal(err)
		}
		return counts
	}
	seq := run(1)
	par := run(4)
	if len(seq) == 0 {
		t.Fatal("sequential run produced nothing")
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: seq=%d par=%d", len(seq), len(par))
	}
	for k, v := range seq {
		if par[k] != v {
			t.Fatalf("window %s: seq=%d par=%d", k, v, par[k])
		}
	}
}

func TestConnectorsPublishOnBroker(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	rawSub, err := broker.Subscribe("strata.raw.>", pubsub.WithSubBuffer(100))
	if err != nil {
		t.Fatal(err)
	}
	evSub, err := broker.Subscribe("strata.events.>", pubsub.WithSubBuffer(100))
	if err != nil {
		t.Fatal(err)
	}

	fw := newTestFramework(t, WithBroker(broker))
	src := fw.AddSource("ot", layersSource("jobX", 3, nil))
	det := fw.DetectEvent("d", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{KV: map[string]any{"e": int64(t.Layer)}})
	})
	fw.Deliver("out", det, func(EventTuple) error { return nil })
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}

	raws := drainSub(rawSub)
	if len(raws) != 3 {
		t.Fatalf("raw connector published %d messages, want 3", len(raws))
	}
	if raws[0].Subject != RawSubject("ot", "jobX") {
		t.Fatalf("raw subject = %q", raws[0].Subject)
	}
	tup, err := DecodeTuple(raws[0].Data)
	if err != nil || tup.Job != "jobX" || tup.Layer != 1 {
		t.Fatalf("decoded raw tuple %+v, err %v", tup, err)
	}
	evs := drainSub(evSub)
	if len(evs) != 3 {
		t.Fatalf("event connector published %d messages, want 3", len(evs))
	}
	if evs[0].Subject != EventSubject("d", "jobX") {
		t.Fatalf("event subject = %q", evs[0].Subject)
	}
}

func drainSub(sub *pubsub.Subscription) []pubsub.Message {
	var out []pubsub.Message
	for {
		select {
		case m := <-sub.C:
			out = append(out, m)
		default:
			return out
		}
	}
}

func TestBrokerSourceBridgesFrameworks(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()

	// Producer framework: source + connector publishes raw tuples.
	producer := newTestFramework(t, WithBroker(broker), WithName("producer"))
	src := producer.AddSource("ot", layersSource("J", 4, func(l int) map[string]any {
		return map[string]any{"v": float64(l)}
	}))
	producer.Deliver("sink", src, func(EventTuple) error { return nil })

	// Consumer framework: taps the raw connector, detects, delivers.
	consumer := newTestFramework(t, WithBroker(broker), WithName("consumer"))
	in := consumer.AddBrokerSource("tap", RawSubject("ot", "J"), 4)
	det := consumer.DetectEvent("d", in, func(t *EventTuple, emit func(*EventTuple) error) error {
		if v, _ := t.GetFloat("v"); v >= 2 {
			return emit(&EventTuple{})
		}
		return nil
	})
	var got []EventTuple
	consumer.Deliver("out", det, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- consumer.Run(ctx) }()
	// Give the consumer's subscription a moment to attach before producing.
	time.Sleep(50 * time.Millisecond)
	if err := producer.Run(ctx); err != nil {
		t.Fatalf("producer Run = %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("consumer Run = %v", err)
	}
	if len(got) != 3 { // layers 2, 3, 4
		t.Fatalf("consumer detected %d events, want 3", len(got))
	}
}

func TestBrokerSourceRequiresBroker(t *testing.T) {
	fw := newTestFramework(t)
	fw.AddBrokerSource("tap", "x.y", 1)
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v, want ErrBadPipeline", err)
	}
}

func TestLatencyPropagation(t *testing.T) {
	fw := newTestFramework(t)
	avail := time.Now().Add(-time.Hour) // distinctive availability stamp
	src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
		return emit(EventTuple{TS: time.UnixMicro(1), Job: "j", Layer: 1, AvailableAt: avail})
	})
	part := fw.Partition("p", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{Specimen: "A"})
	})
	det := fw.DetectEvent("d", part, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{})
	})
	cor := fw.CorrelateEvents("c", det, 1, func(w CorrelateWindow, emit func(EventTuple) error) error {
		if !w.AvailableAt.Equal(avail) {
			return fmt.Errorf("window AvailableAt = %v, want %v", w.AvailableAt, avail)
		}
		return emit(EventTuple{})
	})
	var got []EventTuple
	fw.Deliver("out", cor, func(t EventTuple) error {
		got = append(got, t)
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].AvailableAt.Equal(avail) {
		t.Fatalf("result AvailableAt not propagated: %+v", got)
	}
}

func TestFuseGroupBy(t *testing.T) {
	// Two streams each emit two tuples per (job, layer) distinguished by a
	// "machine" payload key; FuseGroupBy must pair only matching machines.
	fw := newTestFramework(t)
	base := time.UnixMicro(1_000_000)
	mk := func(kv map[string]any) EventTuple {
		return EventTuple{TS: base, Job: "j", Layer: 1, KV: kv}
	}
	s1 := fw.AddSource("s1", func(ctx context.Context, emit func(EventTuple) error) error {
		for _, m := range []string{"m1", "m2"} {
			if err := emit(mk(map[string]any{"machine": m, "a": m + "-left"})); err != nil {
				return err
			}
		}
		return nil
	})
	s2 := fw.AddSource("s2", func(ctx context.Context, emit func(EventTuple) error) error {
		for _, m := range []string{"m1", "m2"} {
			if err := emit(mk(map[string]any{"machine": m, "b": m + "-right"})); err != nil {
				return err
			}
		}
		return nil
	})
	fused := fw.Fuse("f", s1, s2, FuseGroupBy("machine"))
	var got []string
	var mu sync.Mutex
	fw.Deliver("out", fused, func(t EventTuple) error {
		a, _ := t.GetString("a")
		b, _ := t.GetString("b")
		mu.Lock()
		got = append(got, a+"+"+b)
		mu.Unlock()
		return nil
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := "[m1-left+m1-right m2-left+m2-right]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fused = %v, want %v", got, want)
	}
}

func TestConnectorTapsWithParallelStages(t *testing.T) {
	// Event/result connectors must publish from every parallel branch.
	broker := pubsub.NewBroker()
	defer broker.Close()
	evSub, err := broker.Subscribe("strata.events.>", pubsub.WithSubBuffer(1000))
	if err != nil {
		t.Fatal(err)
	}
	resSub, err := broker.Subscribe("strata.results.>", pubsub.WithSubBuffer(1000))
	if err != nil {
		t.Fatal(err)
	}
	fw := newTestFramework(t, WithBroker(broker))
	src := fw.AddSource("s", layersSource("J", 4, nil))
	part := fw.Partition("p", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		for i := 0; i < 3; i++ {
			if err := emit(&EventTuple{Specimen: fmt.Sprintf("s%d", i)}); err != nil {
				return err
			}
		}
		return nil
	}, WithParallelism(3))
	det := fw.DetectEvent("d", part, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{})
	}, WithParallelism(3))
	cor := fw.CorrelateEvents("c", det, 2, func(w CorrelateWindow, emit func(EventTuple) error) error {
		return emit(EventTuple{})
	}, WithParallelism(3))
	fw.Deliver("out", cor, func(EventTuple) error { return nil })
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if got := len(drainSub(evSub)); got != 12 { // 4 layers × 3 specimens
		t.Fatalf("event connector published %d, want 12", got)
	}
	if got := len(drainSub(resSub)); got != 12 {
		t.Fatalf("result connector published %d, want 12", got)
	}
}
