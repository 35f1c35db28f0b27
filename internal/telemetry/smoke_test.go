// End-to-end exposition smoke test: one running STRATA deployment (manager
// + broker + store + a traced pipeline) served over HTTP must produce a
// valid Prometheus exposition covering all four layers, and a sampled trace
// traversing the pipeline must be retrievable from /debug/traces. The
// Makefile's metrics-smoke target runs exactly this test.
package telemetry_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"strata/internal/core"
	"strata/internal/pubsub"
	"strata/internal/telemetry"
)

func httpGet(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestEndToEndMetricsSmoke(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	m, err := core.NewManager(t.TempDir(), broker, core.WithDefaultTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A 4-operator pipeline (source → partition → detect → sink) that emits
	// its layers and then stays live until released, so the scrape observes
	// a running deployment.
	release := make(chan struct{})
	delivered := make(chan struct{}, 16)
	p, err := m.Deploy("smoke", func(fw *core.Framework) error {
		src := fw.AddSource("src", func(ctx context.Context, emit func(core.EventTuple) error) error {
			for l := 1; l <= 3; l++ {
				err := emit(core.EventTuple{
					TS:    time.UnixMicro(int64(l) * 1_000_000),
					Job:   "smoke-job",
					Layer: l,
					KV:    map[string]any{"power": float64(l)},
				})
				if err != nil {
					return err
				}
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil
		})
		parts := fw.Partition("split", src, func(in *core.EventTuple, emit func(*core.EventTuple) error) error {
			out := in
			out.Specimen = "spec-1"
			return emit(out)
		})
		events := fw.DetectEvent("detect", parts, func(in *core.EventTuple, emit func(*core.EventTuple) error) error {
			out := in.WithKV("hot", true)
			return emit(&out)
		})
		fw.Deliver("expert", events, func(core.EventTuple) error {
			delivered <- struct{}{}
			return nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		if err := p.Wait(); err != nil {
			t.Errorf("pipeline ended with %v", err)
		}
	}()

	// Wait until every layer has traversed the whole pipeline.
	for i := 0; i < 3; i++ {
		select {
		case <-delivered:
		case <-time.After(10 * time.Second):
			t.Fatal("pipeline did not deliver within 10s")
		}
	}

	reg := telemetry.NewRegistry()
	reg.Register(m)
	reg.Register(broker)
	reg.Register(telemetry.GoRuntime{})
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.NewHandler(reg,
		telemetry.WithPipelines(m.DebugPipelines),
		telemetry.WithTraces(func() []telemetry.TraceSnapshot {
			return p.Framework().Traces().Slowest(0)
		})))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /metrics: valid exposition covering all four layers plus the runtime.
	text, ctype := httpGet(t, base+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ctype)
	}
	if err := telemetry.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, text)
	}
	for layer, marker := range map[string]string{
		"stream":  `strata_stream_op_tuples_out_total{op="src",query="smoke"} 3`,
		"pubsub":  "strata_pubsub_published_total",
		"kvstore": "strata_kvstore_memtable_entries{",
		"core":    `strata_manager_pipeline_status{pipeline="smoke",status="running"} 1`,
		"runtime": "go_goroutines",
	} {
		if !strings.Contains(text, marker) {
			t.Errorf("/metrics missing %s-layer sample %q\n---\n%s", layer, marker, text)
		}
	}

	// /healthz: liveness.
	if body, _ := httpGet(t, base+"/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q, want ok", body)
	}

	// /debug/pipelines: the running pipeline is listed.
	body, _ := httpGet(t, base+"/debug/pipelines")
	var pipes []core.PipelineDebug
	if err := json.Unmarshal([]byte(body), &pipes); err != nil {
		t.Fatalf("/debug/pipelines: %v\n%s", err, body)
	}
	if len(pipes) != 1 || pipes[0].Name != "smoke" || pipes[0].Status != "running" {
		t.Errorf("/debug/pipelines = %+v", pipes)
	}

	// /debug/traces: a sampled trace traversed >= 3 operators with
	// non-zero spans.
	body, _ = httpGet(t, base+"/debug/traces")
	var report struct {
		Count  int                       `json:"count"`
		Traces []telemetry.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("/debug/traces: %v\n%s", err, body)
	}
	if report.Count != 3 {
		t.Fatalf("/debug/traces count = %d, want 3 (every layer sampled)\n%s", report.Count, body)
	}
	tr := report.Traces[0]
	if !tr.Finished || tr.Total <= 0 {
		t.Errorf("slowest trace not finished or zero total: %+v", tr)
	}
	if len(tr.Spans) < 3 {
		t.Fatalf("slowest trace has %d spans, want >= 3: %+v", len(tr.Spans), tr)
	}
	for _, sp := range tr.Spans {
		if sp.Duration <= 0 {
			t.Errorf("span %q has non-positive duration", sp.Op)
		}
	}
	// Connector taps and end-of-layer markers contribute extra spans; the
	// three user-visible stages must all be present. split and detect run
	// as one stage chain, so each must appear in exactly one span's
	// "+"-joined operator name.
	ops := make(map[string]bool)
	for _, sp := range tr.Spans {
		ops[sp.Op] = true
	}
	for _, stage := range []string{"split", "detect"} {
		n := 0
		for op := range ops {
			if slices.Contains(strings.Split(op, "+"), stage) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("stage %q named by %d span ops, want 1 (spans: %+v)", stage, n, tr.Spans)
		}
	}
	if !ops["expert"] {
		t.Errorf("trace missing span for %q (spans: %+v)", "expert", tr.Spans)
	}
}
