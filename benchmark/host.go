package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
	"strata/internal/kvstore"
	"strata/internal/pubsub"
	"strata/internal/telemetry"
)

// pipelineName is the deployed pipeline's (and its checkpoints') name.
const pipelineName = "bench"

// host is one deployed Algorithm-1 pipeline inside this process — the
// driver itself on the in-process workloads, the worker role on the
// cross-process ones — together with the benchmark's view of it: when each
// layer was released, when its last verdict became durable, and the public
// counters of the layers underneath.
type host struct {
	p     plan
	spans *spanLog

	// vdb holds the verdicts, opened with synced writes.
	vdb *kvstore.DB
	// put commits one verdict: fw.Store on the in-process workloads, vdb.Put
	// beside the manager's state store on the cross-process ones.
	put func(key string, val []byte) error
	// framework returns the running pipeline's framework.
	framework func() *core.Framework

	mgr   *core.Manager
	local *pubsub.Broker
	stop  func() error

	// afterCommit, when set, runs after each specimen verdict is durable
	// (the live worker publishes the verdict tuple from it).
	afterCommit func(res bench.Result, d digest)
	// layerDone, when set, is told about every completed layer.
	layerDone func(id string)

	// released maps a layer id to when it was released (the latency
	// origin); emitted to when the feed handed its OT tuple to the pipeline.
	released sync.Map
	emitted  sync.Map

	// counts is only touched by the pipeline's single sink goroutine.
	counts map[string]int

	mu        sync.Mutex
	measuring bool
	latencies []float64
	layers    int
	lastDone  time.Time

	commitErrs atomic.Int64
	// failed is closed when the pipeline ends before stop was asked for.
	failed  chan struct{}
	failErr error
}

func newHost(p plan, spans *spanLog) *host {
	return &host{p: p, spans: spans, counts: make(map[string]int), failed: make(chan struct{})}
}

// startInProc opens a synced store in dir, calibrates from the ring and
// runs bench.BuildPipeline on a plain framework fed by feed.
func (h *host) startInProc(dir string, r *ring, feed bench.Feed) error {
	db, err := kvstore.Open(filepath.Join(dir, "verdicts"), kvstore.WithSyncWrites(true))
	if err != nil {
		return err
	}
	h.vdb = db
	fw, err := core.New(core.WithStore(db), core.WithName(pipelineName))
	if err != nil {
		return err
	}
	h.put = fw.Store
	h.framework = func() *core.Framework { return fw }
	if err := bench.CalibrateFromLayers(fw, r.layers, calibLayers); err != nil {
		return err
	}
	if err := bench.BuildPipeline(fw, feed, h.p.layout.LayerMM, h.p.params, h.onResult); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fw.Run(ctx) }()
	go h.watch(done)
	h.stop = func() error {
		cancel()
		<-h.failed
		return fw.Close()
	}
	return nil
}

// startManaged deploys bench.BuildPipeline through core.Manager (shared
// state store in dir, checkpointing when the workload asks for it), with
// verdicts committed to a separate synced store. calib are the historical
// layers the classification reference is computed from.
func (h *host) startManaged(dir string, calib []amsim.LayerData, feed bench.Feed, ckptEvery time.Duration) error {
	db, err := kvstore.Open(filepath.Join(dir, "verdicts"), kvstore.WithSyncWrites(true))
	if err != nil {
		return err
	}
	h.vdb = db
	h.put = func(key string, val []byte) error { return db.Put([]byte(key), val) }
	// The manager wants an in-process broker for its connector taps; it
	// never leaves this process.
	h.local = pubsub.NewBroker()
	mgr, err := core.NewManager(filepath.Join(dir, "state"), h.local)
	if err != nil {
		return err
	}
	h.mgr = mgr
	cal, err := core.New(core.WithStore(mgr.Store()))
	if err != nil {
		return err
	}
	if err := bench.CalibrateFromLayers(cal, calib, calibLayers); err != nil {
		return err
	}
	var opts []core.DeployOption
	if ckptEvery > 0 {
		opts = append(opts, core.WithCheckpointInterval(ckptEvery))
	}
	pipe, err := mgr.Deploy(pipelineName, func(fw *core.Framework) error {
		return bench.BuildPipeline(fw, feed, h.p.layout.LayerMM, h.p.params, h.onResult)
	}, opts...)
	if err != nil {
		return err
	}
	h.framework = pipe.Framework
	done := make(chan error, 1)
	go func() { done <- pipe.Wait() }()
	go h.watch(done)
	h.stop = func() error {
		err := mgr.Decommission(pipelineName)
		<-h.failed
		return err
	}
	return nil
}

// watch records how the pipeline ended; callers blocked on a layer select
// on h.failed so a dead pipeline fails the run instead of hanging it.
func (h *host) watch(done <-chan error) {
	h.failErr = <-done
	close(h.failed)
}

// close stops the pipeline and releases the stores.
func (h *host) close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if h.stop != nil {
		keep(h.stop())
	}
	if h.mgr != nil {
		keep(h.mgr.Close())
	}
	if h.local != nil {
		keep(h.local.Close())
	}
	if h.vdb != nil {
		if err := h.vdb.Close(); err != nil && err != kvstore.ErrClosed {
			keep(err)
		}
	}
	return firstErr
}

// release marks a layer as handed to the system: the origin of its
// latency.
func (h *host) release(id string, at time.Time) { h.released.Store(id, at) }

// emitting marks the OT tuple of a layer entering the pipeline.
func (h *host) emitting(id string, at time.Time) { h.emitted.Store(id, at) }

// onResult is the pipeline's expert sink: it makes the specimen verdict
// durable and, on a layer's last verdict, closes the layer. It runs on the
// pipeline's single sink goroutine.
func (h *host) onResult(res bench.Result) error {
	d := digestOf(res)
	id := layerID(res.Job, res.Layer)
	start := time.Now()
	err := h.put(verdictKey(res.Job, res.Layer, res.Specimen), d[:])
	end := time.Now()
	if err != nil {
		h.commitErrs.Add(1)
		return fmt.Errorf("commit verdict %s/%s: %w", id, res.Specimen, err)
	}
	h.spans.add(id, spanCommit, start, end)
	if h.afterCommit != nil {
		h.afterCommit(res, d)
	}
	h.counts[id]++
	if h.counts[id] < specimens {
		return nil
	}
	delete(h.counts, id)
	now := time.Now()
	if at, ok := h.emitted.LoadAndDelete(id); ok {
		h.spans.add(id, spanPipeline, at.(time.Time), now)
	}
	if at, ok := h.released.LoadAndDelete(id); ok {
		t0 := at.(time.Time)
		h.spans.add(id, spanLayer, t0, now)
		h.mu.Lock()
		if h.measuring {
			h.latencies = append(h.latencies, ms(now.Sub(t0)))
			h.layers++
			h.lastDone = now
		}
		h.mu.Unlock()
	}
	if h.layerDone != nil {
		h.layerDone(id)
	}
	return nil
}

// counters is a point-in-time reading of everything the host reports as a
// delta over the measured window.
type counters struct {
	at        time.Time
	cpuS      float64
	allocB    uint64
	gcPauseNS uint64
	kvSyncs   float64
	kvWAL     float64
	kv        kvstore.Stats
	tuples    float64
	chunks    float64
	opBusyMS  map[string]float64
}

// stageOps are the four user stages of Algorithm 1 whose service
// histograms the benchmark reports.
var stageOps = []string{"spec", "cell", "cellLabel", "out"}

func (h *host) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		at: time.Now(), cpuS: procCPU(os.Getpid()), allocB: ms.TotalAlloc, gcPauseNS: ms.PauseTotalNs,
		kv: h.vdb.Stats(), opBusyMS: make(map[string]float64),
	}
	prom := gather(h.vdb)
	c.kvSyncs = prom["strata_kvstore_wal_group_syncs_total"]
	c.kvWAL = prom["strata_kvstore_wal_bytes"]
	for _, s := range h.framework().Query().Metrics().Snapshot() {
		c.tuples += float64(s.Out)
		c.chunks += float64(s.BatchCount)
		for _, op := range stageOps {
			if s.Name == op || strings.HasPrefix(s.Name, op+".") && isReplica(s.Name[len(op)+1:]) {
				c.opBusyMS[op] += s.Service.Sum * 1000
			}
		}
	}
	return c
}

// isReplica reports whether an operator-name suffix is a parallel replica
// index (as opposed to ".shuffle" or ".merge" plumbing).
func isReplica(suffix string) bool {
	_, err := strconv.Atoi(suffix)
	return err == nil
}

// hostReport is what a host measured over one window, in window totals.
type hostReport struct {
	WindowS      float64            `json:"window_s"`
	Layers       int                `json:"layers"`
	LatenciesMS  []float64          `json:"latencies_ms"`
	CPUS         float64            `json:"cpu_s"`
	AllocMB      float64            `json:"alloc_mb"`
	GCPauseMS    float64            `json:"gc_pause_ms"`
	Goroutines   int                `json:"goroutines"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	Tuples       float64            `json:"tuples"`
	Chunks       float64            `json:"chunks"`
	OpBusyMS     map[string]float64 `json:"op_busy_ms"`
	KVSyncs      float64            `json:"kv_syncs"`
	KVWALBytes   float64            `json:"kv_wal_bytes"`
	KVFlushes    float64            `json:"kv_flushes"`
	KVCompaction float64            `json:"kv_compactions"`
	CommitErrors int64              `json:"commit_errors"`
}

// beginWindow starts recording latencies and returns the opening counters.
func (h *host) beginWindow() counters {
	c := h.snapshot()
	h.mu.Lock()
	h.measuring = true
	h.latencies = nil
	h.layers = 0
	h.mu.Unlock()
	return c
}

// endWindow stops recording and reports the window. The window runs from
// begin to the last layer completed inside it.
func (h *host) endWindow(begin counters) hostReport {
	h.mu.Lock()
	h.measuring = false
	lat, layers, last := h.latencies, h.layers, h.lastDone
	h.mu.Unlock()
	end := h.snapshot()
	rep := hostReport{
		Layers:       layers,
		LatenciesMS:  lat,
		CPUS:         end.cpuS - begin.cpuS,
		AllocMB:      float64(end.allocB-begin.allocB) / 1e6,
		GCPauseMS:    float64(end.gcPauseNS-begin.gcPauseNS) / 1e6,
		Goroutines:   runtime.NumGoroutine(),
		PeakRSSMB:    peakRSSMB(os.Getpid()),
		Tuples:       end.tuples - begin.tuples,
		Chunks:       end.chunks - begin.chunks,
		OpBusyMS:     make(map[string]float64),
		KVSyncs:      end.kvSyncs - begin.kvSyncs,
		KVFlushes:    float64(end.kv.Flushes - begin.kv.Flushes),
		KVCompaction: float64(end.kv.Compactions - begin.kv.Compactions),
		CommitErrors: h.commitErrs.Load(),
	}
	if last.After(begin.at) {
		rep.WindowS = last.Sub(begin.at).Seconds()
	}
	// The WAL gauge restarts at every memtable flush; without one its
	// growth is the bytes the window's commits wrote.
	if d := end.kvWAL - begin.kvWAL; d > 0 {
		rep.KVWALBytes = d
	}
	for _, op := range stageOps {
		rep.OpBusyMS[op] = end.opBusyMS[op] - begin.opBusyMS[op]
	}
	return rep
}

// gather renders a collector's metrics and sums each family over its label
// sets — enough to read the counters the layers already expose.
func gather(c telemetry.Collector) map[string]float64 {
	reg := telemetry.NewRegistry()
	reg.Register(c)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	return parseProm(buf.String())
}

// parseProm reads Prometheus text exposition into name → value, summing
// over label sets.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// procCPU is a process's user+system CPU time in seconds, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	s := string(raw)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	const clockTick = 100
	return (ut + st) / clockTick
}

// peakRSSMB is a process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
