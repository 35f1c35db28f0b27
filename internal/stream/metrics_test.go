package stream

import (
	"context"
	"strings"
	"testing"
	"time"

	"strata/internal/telemetry"
)

// tracedTuple carries both an event time and a trace context, like core's
// EventTuple.
type tracedTuple struct {
	ts int64
	tr *telemetry.Trace
}

func (t tracedTuple) EventTime() int64               { return t.ts }
func (t tracedTuple) TraceContext() *telemetry.Trace { return t.tr }

var (
	_ Timestamped = tracedTuple{}
	_ Traceable   = tracedTuple{}
)

func TestSnapshotServiceQueueAndWatermark(t *testing.T) {
	q := NewQuery("snap")
	src := AddSource(q, "src", FromSlice([]At[int]{
		{TS: 100, Val: 1}, {TS: 200, Val: 2}, {TS: 300, Val: 3},
	}))
	m := Map(q, "slow", src, func(v At[int]) (At[int], error) {
		time.Sleep(time.Millisecond)
		return v, nil
	})
	AddSink(q, "sink", m, Discard[At[int]]())
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := q.Metrics().Snapshot()
	byName := make(map[string]StatsSnapshot, len(snap))
	for _, s := range snap {
		byName[s.Name] = s
	}
	slow, ok := byName["slow"]
	if !ok {
		t.Fatalf("no snapshot for %q: %+v", "slow", snap)
	}
	if slow.In != 3 || slow.Out != 3 {
		t.Errorf("slow in/out = %d/%d, want 3/3", slow.In, slow.Out)
	}
	if slow.ServiceCount != 3 {
		t.Errorf("ServiceCount = %d, want 3", slow.ServiceCount)
	}
	if slow.P99 < time.Millisecond {
		t.Errorf("p99 = %v, want >= 1ms (each tuple sleeps 1ms)", slow.P99)
	}
	if slow.MaxService < slow.P50 {
		t.Errorf("MaxService %v < P50 %v", slow.MaxService, slow.P50)
	}
	if !slow.HasWatermark || slow.Watermark != 300 {
		t.Errorf("watermark = %d (has=%v), want 300", slow.Watermark, slow.HasWatermark)
	}
	if slow.QueueCap != DefaultBufferSize {
		t.Errorf("QueueCap = %d, want %d", slow.QueueCap, DefaultBufferSize)
	}
	// After a clean drain every queue is empty.
	if slow.QueueLen != 0 {
		t.Errorf("QueueLen = %d after drain, want 0", slow.QueueLen)
	}
	// All operators saw the same final event time, so nobody lags.
	for _, s := range snap {
		if s.HasWatermark && s.WatermarkLag != 0 {
			t.Errorf("%s WatermarkLag = %d after drain, want 0", s.Name, s.WatermarkLag)
		}
	}
}

func TestWatermarkLagAcrossOps(t *testing.T) {
	var r Registry
	r.Op("ahead").observeEventTime(5000)
	r.Op("behind").observeEventTime(2000)
	r.Op("silent") // never sees a timestamped tuple

	byName := make(map[string]StatsSnapshot)
	for _, s := range r.Snapshot() {
		byName[s.Name] = s
	}
	if got := byName["ahead"].WatermarkLag; got != 0 {
		t.Errorf("ahead lag = %d, want 0", got)
	}
	if got := byName["behind"].WatermarkLag; got != 3000 {
		t.Errorf("behind lag = %d, want 3000", got)
	}
	if byName["silent"].HasWatermark {
		t.Error("silent op reports a watermark")
	}
	// Watermarks only advance.
	r.Op("behind").observeEventTime(1000)
	if w, _ := r.Op("behind").Watermark(); w != 2000 {
		t.Errorf("watermark regressed to %d", w)
	}
}

func TestQueryCollectExposition(t *testing.T) {
	q := NewQuery("expo")
	src := AddSource(q, "src", FromSlice([]At[int]{{TS: 1, Val: 1}, {TS: 2, Val: 2}}))
	m := Map(q, "double", src, func(v At[int]) (At[int], error) {
		v.Val *= 2
		return v, nil
	})
	AddSink(q, "sink", m, Discard[At[int]]())
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	reg.Register(q)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := telemetry.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, text)
	}
	for _, want := range []string{
		`strata_stream_op_tuples_in_total{op="double",query="expo"} 2`,
		`strata_stream_op_tuples_out_total{op="sink",query="expo"} 0`,
		`strata_stream_op_service_seconds_count{op="double",query="expo"} 2`,
		`strata_stream_op_watermark_lag_seconds{op="double",query="expo"} 0`,
		`strata_stream_op_queue_capacity{op="double",query="expo"} 256`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
}

// TestTraceThroughPipeline drives a traced tuple across three operators and
// checks the finished trace lands in the query's buffer with one span per
// user-function operator.
func TestTraceThroughPipeline(t *testing.T) {
	q := NewQuery("traced")
	tuples := []tracedTuple{
		{ts: 1, tr: telemetry.NewTrace(1, "traced")},
		{ts: 2, tr: nil}, // unsampled tuple rides along untraced
	}
	src := AddSource(q, "src", FromSlice(tuples))
	a := Map(q, "stageA", src, func(v tracedTuple) (tracedTuple, error) { return v, nil })
	b := Map(q, "stageB", a, func(v tracedTuple) (tracedTuple, error) { return v, nil })
	AddSink(q, "sink", b, Discard[tracedTuple]())
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	traces := q.Traces().Slowest(10)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1 (only the sampled tuple)", len(traces))
	}
	tr := traces[0]
	if !tr.Finished {
		t.Error("trace not finished")
	}
	wantOps := []string{"stageA", "stageB", "sink"}
	if len(tr.Spans) != len(wantOps) {
		t.Fatalf("spans = %+v, want ops %v", tr.Spans, wantOps)
	}
	for i, sp := range tr.Spans {
		if sp.Op != wantOps[i] {
			t.Errorf("span %d op = %q, want %q", i, sp.Op, wantOps[i])
		}
		if sp.Duration <= 0 {
			t.Errorf("span %s duration = %v, want > 0", sp.Op, sp.Duration)
		}
	}
}

// TestTraceFanoutFinishOnce checks that when a traced tuple is duplicated to
// two sinks, the trace is finished and filed exactly once.
func TestTraceFanoutFinishOnce(t *testing.T) {
	q := NewQuery("fanout-traced")
	tr := telemetry.NewTrace(7, "fanout-traced")
	src := AddSource(q, "src", FromSlice([]tracedTuple{{ts: 1, tr: tr}}))
	outs := Fanout(q, "dup", src, 2)
	AddSink(q, "sinkA", outs[0], Discard[tracedTuple]())
	AddSink(q, "sinkB", outs[1], Discard[tracedTuple]())
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := q.Traces().Len(); got != 1 {
		t.Fatalf("trace buffer len = %d, want 1 (finish must be idempotent)", got)
	}
}
