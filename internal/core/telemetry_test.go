package core

import (
	"slices"
	"strings"
	"testing"

	"strata/internal/pubsub"
	"strata/internal/telemetry"
)

// deployTraced runs a 4-stage pipeline (source → partition → detect →
// deliver) with every tuple sampled, and returns its manager.
func deployTraced(t *testing.T, name string, layers int) *Manager {
	t.Helper()
	broker := pubsub.NewBroker()
	m, err := NewManager(t.TempDir(), broker, WithDefaultTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		broker.Close()
	})
	p, err := m.Deploy(name, func(fw *Framework) error {
		src := fw.AddSource("src", layersSource("job", layers, nil))
		parts := fw.Partition("split", src, func(in *EventTuple, emit func(*EventTuple) error) error {
			out := in
			out.Specimen = "spec-a"
			return emit(out)
		})
		events := fw.DetectEvent("detect", parts, func(in *EventTuple, emit func(*EventTuple) error) error {
			out := in.WithKV("flag", true)
			return emit(&out)
		})
		fw.Deliver("expert", events, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerCollectCoversStoreStreamAndSupervision(t *testing.T) {
	m := deployTraced(t, "mon", 3)

	// Keep one pipeline live so stream metrics are collected.
	if err := m.Store().Put([]byte("threshold"), []byte("42")); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	if _, err := m.Deploy("live", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("job2", 2, nil))
		fw.Deliver("out", src, func(EventTuple) error { <-block; return nil })
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	reg.Register(m)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := telemetry.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, text)
	}
	for _, want := range []string{
		"strata_manager_pipelines 1",
		"strata_manager_pipelines_terminal 1",
		`strata_manager_pipeline_status{pipeline="mon",status="completed"} 1`,
		`strata_manager_pipeline_status{pipeline="live",status="running"} 1`,
		`strata_manager_pipeline_restarts_total{pipeline="mon"} 0`,
		"strata_manager_pipeline_uptime_seconds{",
		"strata_kvstore_memtable_entries{",
		`strata_stream_op_tuples_in_total{op="out",query="live"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
}

func TestTraceSamplingThroughPipeline(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	m, err := NewManager(t.TempDir(), broker, WithDefaultTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, err := m.Deploy("traced", func(fw *Framework) error {
		src := fw.AddSource("src", layersSource("job", 4, nil))
		parts := fw.Partition("split", src, func(in *EventTuple, emit func(*EventTuple) error) error {
			out := in
			out.Specimen = "spec-a"
			return emit(out)
		})
		events := fw.DetectEvent("detect", parts, func(in *EventTuple, emit func(*EventTuple) error) error {
			return emit(in)
		})
		fw.Deliver("expert", events, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	// The pipeline is terminal, so Manager.Traces (live only) is empty;
	// the pipeline's own buffer retains them.
	traces := p.Framework().Traces().Slowest(0)
	if len(traces) != 4 {
		t.Fatalf("got %d traces, want 4 (every layer sampled)", len(traces))
	}
	for _, tr := range traces {
		if !tr.Finished {
			t.Errorf("trace %d not finished", tr.ID)
		}
		if tr.Label != "traced/src" {
			t.Errorf("trace label = %q, want traced/src", tr.Label)
		}
		ops := make(map[string]bool)
		for _, sp := range tr.Spans {
			if sp.Duration <= 0 {
				t.Errorf("span %s has non-positive duration", sp.Op)
			}
			ops[sp.Op] = true
		}
		// The trace must traverse the three user-visible stages. split and
		// detect run as one chain, so each must appear in exactly one
		// span's "+"-joined operator name.
		for _, stage := range []string{"split", "detect"} {
			if n := opsNaming(ops, stage); n != 1 {
				t.Errorf("trace %d: stage %q named by %d span ops, want 1 (spans: %v)", tr.ID, stage, n, tr.Spans)
			}
		}
		if !ops["expert"] {
			t.Errorf("trace %d missing span for %q (spans: %v)", tr.ID, "expert", tr.Spans)
		}
		if tr.Total <= 0 {
			t.Errorf("trace %d total = %v, want > 0", tr.ID, tr.Total)
		}
	}
}

// opsNaming counts the operator names in ops whose "+"-separated stage list
// contains stage.
func opsNaming(ops map[string]bool, stage string) int {
	n := 0
	for op := range ops {
		if slices.Contains(strings.Split(op, "+"), stage) {
			n++
		}
	}
	return n
}

func TestManagerDebugPipelines(t *testing.T) {
	m := deployTraced(t, "dbg", 2)
	v := m.DebugPipelines()
	list, ok := v.([]PipelineDebug)
	if !ok {
		t.Fatalf("DebugPipelines() = %T, want []PipelineDebug", v)
	}
	if len(list) != 1 {
		t.Fatalf("got %d pipelines, want 1", len(list))
	}
	if list[0].Name != "dbg" || list[0].Status != "completed" || list[0].Err != "" {
		t.Fatalf("DebugPipelines()[0] = %+v", list[0])
	}
	if !list[0].LastFailure.IsZero() {
		t.Fatalf("LastFailure = %v, want zero for a clean drain", list[0].LastFailure)
	}
}
