package main

// metricDef names one reported metric. The lists below are the benchmark's
// vocabulary; BENCHMARK.json repeats them and the smoke test fails when the
// two disagree or a run prints anything else.
type metricDef struct {
	Name string
	Unit string
	// Better and Bound only matter for end-to-end metrics: the direction of
	// improvement and the share of the parent's median by which the metric
	// may worsen before -compare calls it worse.
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system would see, reported by
// every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"layer_latency_p50_ms", "ms", "lower", 0.25},
	{"layer_latency_p95_ms", "ms", "lower", 0.25},
	{"images_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_layer", "s", "lower", 0.25},
	{"alloc_mb_per_layer", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, <module>.<name>, reported by
// traced runs. A metric that does not apply to a workload (the wire on an
// in-process one) reads 0 there.
var perLayer = []metricDef{
	{Name: "amsim.render_ms_per_layer", Unit: "ms"},
	{Name: "driver.send_lag_p95_ms", Unit: "ms"},
	{Name: "otimage.marshal_ms_per_layer", Unit: "ms"},
	{Name: "otimage.unmarshal_ms_per_layer", Unit: "ms"},
	{Name: "otimage.split_cells_ms_per_layer", Unit: "ms"},
	{Name: "otimage.cells_per_layer", Unit: "count"},
	{Name: "core.encode_ms_per_layer", Unit: "ms"},
	{Name: "core.decode_ms_per_layer", Unit: "ms"},
	{Name: "core.frame_bytes_per_layer", Unit: "bytes"},
	{Name: "core.encode_verdict_us", Unit: "us"},
	{Name: "core.decode_verdict_us", Unit: "us"},
	{Name: "core.ckpt_pause_ms_p50", Unit: "ms"},
	{Name: "core.ckpt_bytes", Unit: "bytes"},
	{Name: "core.ckpts", Unit: "count"},
	{Name: "core.worker_goroutines", Unit: "count"},
	{Name: "core.worker_gc_pause_ms", Unit: "ms"},
	{Name: "core.worker_peak_rss_mb", Unit: "MB"},
	{Name: "pubsub.wire_image_ms_p50", Unit: "ms"},
	{Name: "pubsub.wire_verdict_us_p50", Unit: "us"},
	{Name: "pubsub.broker_cpu_s_per_layer", Unit: "s"},
	{Name: "pubsub.broker_alloc_mb_per_layer", Unit: "MB"},
	{Name: "pubsub.broker_peak_rss_mb", Unit: "MB"},
	{Name: "pubsub.flushes_saved", Unit: "count"},
	{Name: "pubsub.reconnects", Unit: "count"},
	{Name: "pubsub.publish_errors", Unit: "count"},
	{Name: "pubsub.log_append_mb_per_s", Unit: "MB/s"},
	{Name: "pubsub.log_syncs_per_layer", Unit: "count"},
	{Name: "pubsub.log_read_mb_per_s", Unit: "MB/s"},
	{Name: "pubsub.remote_fetch_ms_per_layer", Unit: "ms"},
	{Name: "stream.tuples_per_layer", Unit: "count"},
	{Name: "stream.chunks_per_layer", Unit: "count"},
	{Name: "stream.op_busy_ms_per_layer.spec", Unit: "ms"},
	{Name: "stream.op_busy_ms_per_layer.cell", Unit: "ms"},
	{Name: "stream.op_busy_ms_per_layer.cellLabel", Unit: "ms"},
	{Name: "stream.op_busy_ms_per_layer.out", Unit: "ms"},
	{Name: "stream.engine_ms_per_layer", Unit: "ms"},
	{Name: "stream.queue_wait_share", Unit: "ratio"},
	{Name: "cluster.dbscan_ms_per_layer", Unit: "ms"},
	{Name: "cluster.points_per_window_p50", Unit: "count"},
	{Name: "cluster.summarize_us_per_layer", Unit: "us"},
	{Name: "kvstore.commit_us_p50", Unit: "us"},
	{Name: "kvstore.fsyncs_per_layer", Unit: "count"},
	{Name: "kvstore.wal_bytes_per_layer", Unit: "bytes"},
	{Name: "kvstore.flushes", Unit: "count"},
	{Name: "kvstore.compactions", Unit: "count"},
	{Name: "kvstore.readback_ms", Unit: "ms"},
	{Name: "kvstore.block_cache_hit_ratio", Unit: "ratio"},
	{Name: "bench.trace_overhead_pct", Unit: "%"},
	{Name: "bench.unattributed_ms", Unit: "ms"},
}

// perLayerValues assembles the per-layer metrics of a traced run and its
// latency-budget table. The traced window is the second one; the first ran
// untraced on the same set-up and only prices the tracing itself.
func perLayerValues(p plan, r *ring, ref *reference, fin finishReport, pr probeResult, rb readBackStats) (map[string]float64, budget) {
	plain, traced := fin.windows[0], fin.windows[1]
	h := traced.host
	layers := float64(h.Layers)
	per := func(total float64) float64 {
		if layers == 0 {
			return 0
		}
		return total / layers
	}
	st := summarizeSpans(fin.spans)

	// Stages hidden inside bench.BuildPipeline, priced by direct, serial
	// calls. The two parallel branches buy little at one layer in flight
	// (the per-operator busy times add up to the layer's latency), so the
	// serial price is the layer's share.
	stages := map[string]float64{
		"otimage.split_cells": pr.splitMS,
		"cluster.dbscan":      pr.dbscanP50MS,
		"cluster.summarize":   pr.summarizeP50MS,
	}
	if p.xproc {
		// A managed pipeline has a broker attached, so its raw-data
		// connector encodes every source tuple once more.
		stages["core.tap_encode"] = pr.encodeMS
	}
	b := makeBudget(p.name, st, stages)

	var busy float64
	for _, op := range stageOps {
		busy += h.OpBusyMS[op]
	}
	user := pr.splitMS + pr.dbscanMS + pr.summarizeUS/1000
	waitShare := 0.0
	if busy > 0 && per(busy) > user {
		waitShare = 1 - user/per(busy)
	}
	overhead := 0.0
	if p50 := percentile(plain.host.LatenciesMS, 0.5); p50 > 0 {
		overhead = 100 * (percentile(h.LatenciesMS, 0.5) - p50) / p50
	}

	v := map[string]float64{
		"amsim.render_ms_per_layer":             r.renderMS,
		"driver.send_lag_p95_ms":                percentile(traced.sendLagMS, 0.95),
		"otimage.marshal_ms_per_layer":          pr.marshalMS,
		"otimage.unmarshal_ms_per_layer":        pr.unmarshalMS,
		"otimage.split_cells_ms_per_layer":      pr.splitMS,
		"otimage.cells_per_layer":               pr.cells,
		"core.encode_ms_per_layer":              pr.encodeMS,
		"core.decode_ms_per_layer":              pr.decodeMS,
		"core.frame_bytes_per_layer":            pr.frameBytes,
		"core.encode_verdict_us":                pr.encodeVerdictUS,
		"core.decode_verdict_us":                pr.decodeVerdictUS,
		"core.ckpt_pause_ms_p50":                median(fin.worker.CkptPauseMS),
		"core.ckpt_bytes":                       fin.worker.CkptBytes,
		"core.ckpts":                            float64(len(fin.worker.CkptPauseMS)),
		"core.worker_goroutines":                float64(h.Goroutines),
		"core.worker_gc_pause_ms":               h.GCPauseMS,
		"core.worker_peak_rss_mb":               h.PeakRSSMB,
		"pubsub.wire_image_ms_p50":              st.child[spanWireIn],
		"pubsub.wire_verdict_us_p50":            st.child[spanWireOut] * 1000,
		"pubsub.broker_cpu_s_per_layer":         per(traced.xproc.brokerCPUS),
		"pubsub.broker_alloc_mb_per_layer":      per(traced.xproc.brokerAllocMB),
		"pubsub.broker_peak_rss_mb":             traced.xproc.brokerPeakRSS,
		"pubsub.flushes_saved":                  traced.xproc.flushesSaved,
		"pubsub.reconnects":                     float64(fin.worker.Reconnects),
		"pubsub.publish_errors":                 float64(fin.worker.PublishErrors),
		"pubsub.log_append_mb_per_s":            fin.logRecord.mbPerS,
		"pubsub.log_syncs_per_layer":            fin.logRecord.syncsPerLayer,
		"pubsub.log_read_mb_per_s":              pr.logReadMBPerS,
		"pubsub.remote_fetch_ms_per_layer":      st.child[spanFetch],
		"stream.tuples_per_layer":               per(h.Tuples),
		"stream.chunks_per_layer":               per(h.Chunks),
		"stream.op_busy_ms_per_layer.spec":      per(h.OpBusyMS["spec"]),
		"stream.op_busy_ms_per_layer.cell":      per(h.OpBusyMS["cell"]),
		"stream.op_busy_ms_per_layer.cellLabel": per(h.OpBusyMS["cellLabel"]),
		"stream.op_busy_ms_per_layer.out":       per(h.OpBusyMS["out"]),
		"stream.engine_ms_per_layer":            b.engineMS(),
		"stream.queue_wait_share":               waitShare,
		"cluster.dbscan_ms_per_layer":           pr.dbscanMS,
		"cluster.points_per_window_p50":         median(ref.pointsPerWindow),
		"cluster.summarize_us_per_layer":        pr.summarizeUS,
		"kvstore.commit_us_p50":                 median(st.commitEachUS),
		"kvstore.fsyncs_per_layer":              per(h.KVSyncs),
		"kvstore.wal_bytes_per_layer":           per(h.KVWALBytes),
		"kvstore.flushes":                       h.KVFlushes,
		"kvstore.compactions":                   h.KVCompaction,
		"kvstore.readback_ms":                   rb.scanMS,
		"kvstore.block_cache_hit_ratio":         rb.cacheHitRatio,
		"bench.trace_overhead_pct":              overhead,
		"bench.unattributed_ms":                 b.UnattributedMS,
	}
	return v, b
}
