package telemetry

import (
	"strings"
	"testing"
)

// collectorFunc adapts a function to the Collector interface.
type collectorFunc func(w *Writer)

func (f collectorFunc) Collect(w *Writer) { f(w) }

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram(0.001, 10, 3) // bounds 0.001, 0.01, 0.1
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // overflow
	reg.Register(collectorFunc(func(w *Writer) {
		w.Counter("strata_test_ops_total", "Operations.", 42, L("op", "map"))
		w.Counter("strata_test_ops_total", "Operations.", 7, L("op", "sink"))
		w.Gauge("strata_test_depth", "Queue depth.", 3)
		w.Histogram("strata_test_latency_seconds", "Latency.", h.Snapshot(), L("op", "map"))
	}))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	for _, want := range []string{
		"# TYPE strata_test_ops_total counter",
		`strata_test_ops_total{op="map"} 42`,
		`strata_test_ops_total{op="sink"} 7`,
		"# TYPE strata_test_depth gauge",
		"strata_test_depth 3",
		"# TYPE strata_test_latency_seconds histogram",
		`strata_test_latency_seconds_bucket{le="0.001",op="map"} 1`,
		`strata_test_latency_seconds_bucket{le="0.1",op="map"} 2`,
		`strata_test_latency_seconds_bucket{le="+Inf",op="map"} 3`,
		`strata_test_latency_seconds_count{op="map"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	if err := ValidateExposition(text); err != nil {
		t.Errorf("ValidateExposition: %v\n---\n%s", err, text)
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Register(collectorFunc(func(w *Writer) {
		w.Gauge("strata_test_esc", "Escapes.", 1, L("path", `a"b\c`+"\n"))
	}))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `path="a\"b\\c\n"`) {
		t.Errorf("label not escaped: %s", text)
	}
	if err := ValidateExposition(text); err != nil {
		t.Errorf("ValidateExposition: %v", err)
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"no type", "foo 1\n"},
		{"bad name", "# TYPE 9foo counter\n9foo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo abc\n"},
		{"unquoted label", "# TYPE foo counter\nfoo{a=b} 1\n"},
		{"unterminated labels", "# TYPE foo counter\nfoo{a=\"b\" 1\n"},
		{"unknown type", "# TYPE foo banana\nfoo 1\n"},
	} {
		if err := ValidateExposition(tc.text); err == nil {
			t.Errorf("%s: ValidateExposition accepted invalid input", tc.name)
		}
	}
}

func TestGoRuntimeCollector(t *testing.T) {
	reg := NewRegistry()
	reg.Register(GoRuntime{})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "go_goroutines") {
		t.Errorf("missing go_goroutines:\n%s", text)
	}
	if err := ValidateExposition(text); err != nil {
		t.Errorf("ValidateExposition: %v\n---\n%s", err, text)
	}
}
