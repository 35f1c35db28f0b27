// Package telemetry is the stdlib-only metrics and tracing core of the
// STRATA stack. It provides log-bucketed latency histograms with quantile
// estimation, a pull-model registry that renders counters, gauges and
// histograms in the Prometheus text exposition format, an embeddable HTTP
// handler (/metrics, /healthz, /debug/pipelines, /debug/traces), and a
// sampled per-tuple trace context for end-to-end latency attribution.
//
// Design: histograms are lock-free on the write path (atomics only), and each
// layer keeps its own counters as atomics, so recording a sample in an
// operator's per-tuple loop costs a few atomic adds. Reading is pull-based:
// a Collector reads its state at scrape time and emits samples into a
// Writer, which the registry renders. Metric names follow the scheme
// strata_<layer>_<name>_<unit> (see DESIGN.md, "Observability").
package telemetry

// Label is one name="value" pair attached to a sample.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Collector is anything that can contribute samples to an exposition. All
// layers (stream queries, brokers, stores, managers) implement it; the
// registry calls Collect on every registered collector at scrape time.
type Collector interface {
	Collect(w *Writer)
}
