// Test fixtures for the metricname analyzer: telemetry metric names must
// be constant, strata_-prefixed snake_case, and carry one help string per
// name. The package mirrors the real telemetry Writer surface: the
// analyzer matches it structurally (package named telemetry, type named
// Writer), so this fake is held to the same contract as the real one.
package telemetry

import "fmt"

// Label is one name=value dimension.
type Label struct{ Name, Value string }

// Writer receives metric samples.
type Writer struct{}

func (w *Writer) Counter(name, help string, value float64, labels ...Label)   {}
func (w *Writer) Gauge(name, help string, value float64, labels ...Label)     {}
func (w *Writer) Histogram(name, help string, value float64, labels ...Label) {}

const (
	opLatency   = "strata_op_latency_seconds"
	queueDepth  = "strata_queue_depth"
	legacyGauge = "engine_queue_depth"
)

func good(w *Writer) {
	w.Counter(opLatency, "operator latency", 0.25)
	w.Gauge(queueDepth, "queue depth", 17)
	// Inline literals are constants too.
	w.Histogram("strata_batch_size", "batch size distribution", 128)
	// go_ is the sanctioned prefix for the runtime-stats mirror.
	w.Gauge("go_goroutines", "live goroutines", 42)
	// Same name, same help: one owner registering from two code paths.
	w.Gauge(queueDepth, "queue depth", 18)
}

func bad(w *Writer, op string, shard int) {
	w.Counter(fmt.Sprintf("strata_%s_total", op), "per-op count", 1) // want `metric name must be a compile-time string constant`
	name := "strata_shard_" + fmt.Sprint(shard)
	w.Gauge(name, "per-shard depth", 3)                 // want `metric name must be a compile-time string constant`
	w.Counter("strata_BadName_total", "mixed case", 1)  // want `is not snake_case`
	w.Gauge(legacyGauge, "unprefixed legacy series", 9) // want `lacks the strata_ prefix`
	w.Gauge(queueDepth, "how deep the queue is", 17)    // want `re-registered with different help text`
}

func grandfathered(w *Writer) {
	//lint:ignore metricname dashboard series predates the prefix convention; renaming breaks alerts
	w.Gauge("engine_uptime_seconds", "legacy uptime series", 1)
}
