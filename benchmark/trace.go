package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span of one layer shares the layer id "job/layer"; the
// root is spanLayer, the others are its children, and spanCommit is a
// child of spanPipeline.
const (
	spanLayer    = "layer"
	spanEncode   = "core.encode"
	spanWireIn   = "pubsub.wire_in"
	spanFetch    = "pubsub.remote_fetch"
	spanDecode   = "core.decode"
	spanPipeline = "pipeline"
	spanCommit   = "kvstore.commit"
	spanWireOut  = "pubsub.wire_out"
	// Zero-length marks from which the driver builds the two spans that
	// start in one process and end in another.
	markRecv       = "mark.frame_received"
	markPubVerdict = "mark.verdict_publish"
)

// span is one timed interval recorded by the benchmark around its own call
// into a layer. Times are wall-clock nanoseconds so spans of the three
// processes (one host, one clock) line up.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanLog keeps spans in memory until the run ends. Recording is off in
// untraced windows, where add costs one atomic load.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(layer, name string, start, end time.Time) {
	if !l.on.Load() {
		return
	}
	parent := spanLayer
	switch name {
	case spanLayer:
		parent = ""
	case spanCommit:
		parent = spanPipeline
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Layer: layer, Name: name, Parent: parent, Start: start.UnixNano(), End: end.UnixNano()})
	l.mu.Unlock()
}

func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

func layerID(job string, layer int) string { return fmt.Sprintf("%s/%04d", job, layer) }

// layerSpans groups spans by layer and name. A name that occurs several
// times per layer (the twelve commits) keeps all occurrences.
func layerSpans(spans []span) map[string]map[string][]span {
	out := make(map[string]map[string][]span)
	for _, s := range spans {
		m := out[s.Layer]
		if m == nil {
			m = make(map[string][]span)
			out[s.Layer] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}
	return out
}

// joinCrossProcess turns the worker's marks into the two spans that cross
// a process boundary: wire_in runs from the driver's publish call to the
// frame being handed to the worker, wire_out from the worker's publish of
// a layer's last verdict to the driver receiving it.
func joinCrossProcess(spans []span) []span {
	by := layerSpans(spans)
	out := spans[:0:0]
	for _, s := range spans {
		if s.Name != markRecv && s.Name != markPubVerdict {
			out = append(out, s)
		}
	}
	for id, m := range by {
		root, ok := first(m[spanLayer])
		if !ok {
			continue
		}
		if enc, ok := first(m[spanEncode]); ok {
			if rcv, ok := first(m[markRecv]); ok && rcv.Start >= enc.End {
				out = append(out, span{Layer: id, Name: spanWireIn, Parent: spanLayer, Start: enc.End, End: rcv.Start})
			}
		}
		if pubs := m[markPubVerdict]; len(pubs) > 0 {
			last := pubs[0]
			for _, p := range pubs[1:] {
				if p.Start > last.Start {
					last = p
				}
			}
			if root.End >= last.Start {
				out = append(out, span{Layer: id, Name: spanWireOut, Parent: spanLayer, Start: last.Start, End: root.End})
			}
		}
	}
	return out
}

func first(s []span) (span, bool) {
	if len(s) == 0 {
		return span{}, false
	}
	return s[0], true
}

// budgetRow is one line of the latency-budget table.
type budgetRow struct {
	Row string  `json:"row"`
	MS  float64 `json:"ms_per_layer"`
	Pct float64 `json:"pct_of_p50"`
}

// budget is the per-workload decomposition of layer→verdict latency.
type budget struct {
	Workload       string      `json:"workload"`
	LatencyP50MS   float64     `json:"layer_latency_p50_ms"`
	Layers         int         `json:"traced_layers"`
	Rows           []budgetRow `json:"rows"`
	UnattributedMS float64     `json:"unattributed_ms"`
}

// spanStats are the per-layer medians of the traced spans.
type spanStats struct {
	layers     int
	latencyP50 float64
	// p50 of each child span's per-layer time (commits summed per layer).
	child map[string]float64
	// pipelineSelf is the pipeline span minus the commits inside it.
	pipelineSelf float64
	// commitEach are the individual commit durations in µs.
	commitEachUS []float64
}

func summarizeSpans(spans []span) spanStats {
	by := layerSpans(spans)
	st := spanStats{child: make(map[string]float64)}
	per := make(map[string][]float64)
	var lat, self []float64
	for _, m := range by {
		root, ok := first(m[spanLayer])
		if !ok {
			continue
		}
		st.layers++
		lat = append(lat, root.ms())
		for name, ss := range m {
			if name == spanLayer {
				continue
			}
			var sum float64
			for _, s := range ss {
				sum += s.ms()
				if name == spanCommit {
					st.commitEachUS = append(st.commitEachUS, s.ms()*1000)
				}
			}
			per[name] = append(per[name], sum)
		}
		if pl, ok := first(m[spanPipeline]); ok {
			var commits float64
			for _, s := range m[spanCommit] {
				commits += s.ms()
			}
			self = append(self, pl.ms()-commits)
		}
	}
	st.latencyP50 = median(lat)
	for name, v := range per {
		st.child[name] = median(v)
	}
	st.pipelineSelf = median(self)
	return st
}

// makeBudget lays the span medians and the stage-probe prices out as rows
// that should sum to the measured latency. The stages hidden inside
// bench.BuildPipeline are priced by direct calls (probe); what remains of
// the pipeline span's self time is the stream engine.
func makeBudget(workload string, st spanStats, stages map[string]float64) budget {
	b := budget{Workload: workload, LatencyP50MS: st.latencyP50, Layers: st.layers}
	add := func(name string, v float64) {
		if v <= 0 {
			return
		}
		b.Rows = append(b.Rows, budgetRow{Row: name, MS: v})
	}
	add(spanEncode, st.child[spanEncode])
	add(spanWireIn, st.child[spanWireIn])
	add(spanFetch, st.child[spanFetch])
	add(spanDecode, st.child[spanDecode])
	engine := st.pipelineSelf
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(name, stages[name])
		engine -= stages[name]
	}
	if engine < 0 {
		engine = 0
	}
	add("stream.engine", engine)
	add(spanCommit, st.child[spanCommit])
	add(spanWireOut, st.child[spanWireOut])
	var sum float64
	for _, r := range b.Rows {
		sum += r.MS
	}
	b.UnattributedMS = st.latencyP50 - sum
	if st.latencyP50 > 0 {
		for i := range b.Rows {
			b.Rows[i].Pct = 100 * b.Rows[i].MS / st.latencyP50
		}
	}
	return b
}

func (b budget) engineMS() float64 {
	for _, r := range b.Rows {
		if r.Row == "stream.engine" {
			return r.MS
		}
	}
	return 0
}

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "latency budget %s (traced p50 %.3f ms over %d layers)\n", b.Workload, b.LatencyP50MS, b.Layers)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-28s %10.3f ms %6.1f %%\n", r.Row, r.MS, r.Pct)
	}
	pct := 0.0
	if b.LatencyP50MS > 0 {
		pct = 100 * b.UnattributedMS / b.LatencyP50MS
	}
	fmt.Fprintf(w, "  %-28s %10.3f ms %6.1f %%\n", "bench.unattributed", b.UnattributedMS, pct)
}
