package stream

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/obslog"
	"strata/internal/telemetry"
)

// noWatermark marks an operator that has not yet observed a timestamped
// tuple. Real event times are microseconds around an application-chosen
// origin, so the extreme sentinel can never collide with one.
const noWatermark = math.MinInt64

// OpStats holds the live counters of one operator. All fields are safe for
// concurrent use; recording is lock-free on the hot path.
type OpStats struct {
	// name is the operator's registry key, used to attribute shed-burst
	// events in the structured log.
	name string

	in  atomic.Int64
	out atomic.Int64

	// shedBurstAt throttles shed-burst logging: a sustained shedding
	// episode is one event, not one per dropped tuple.
	shedBurstAt atomic.Int64

	// service records per-tuple service time: the span from dequeuing a
	// tuple to finishing its processing, including any back-pressure wait
	// while emitting downstream (so a congested pipeline shows up in the
	// tail, which is the point of measuring it).
	service *telemetry.Histogram

	// batches records the size (in tuples) of every chunk this operator
	// sent downstream — the direct evidence of how well micro-batching is
	// amortizing channel synchronization. An average near 1 under load
	// means the batch/linger knobs are not engaging.
	batches *telemetry.Histogram

	// watermark is the maximum event time (µs) this operator has consumed
	// (produced, for sources); noWatermark until a timestamped tuple is
	// seen.
	watermark atomic.Int64

	// Shed counters, one per drop reason. Only operators built with
	// WithShedGate ever advance them.
	shedExpired atomic.Int64 // deadline passed at admission
	shedLowPri  atomic.Int64 // below the priority floor on a full edge

	// The output-queue probe is installed once at build time and read at
	// snapshot time; the mutex only guards installation against snapshots.
	qmu      sync.Mutex
	queueLen func() int
	queueCap int

	// The shed gate is installed once at build time (like the queue probe)
	// and read once by the operator's chunker/emitter at run start; the
	// same mutex guards the installation.
	shedGated bool
	shedKnobs *OverloadKnobs
}

func newOpStats() *OpStats {
	s := &OpStats{
		service: telemetry.NewDurationHistogram(),
		batches: telemetry.NewBatchHistogram(),
	}
	s.watermark.Store(noWatermark)
	return s
}

// In returns the number of tuples the operator has consumed.
func (s *OpStats) In() int64 { return s.in.Load() }

// Out returns the number of tuples the operator has produced.
func (s *OpStats) Out() int64 { return s.out.Load() }

// Service returns a point-in-time copy of the operator's service-time
// histogram (values in seconds).
func (s *OpStats) Service() telemetry.HistogramSnapshot { return s.service.Snapshot() }

// Batches returns a point-in-time copy of the operator's chunk-size
// histogram (values in tuples per channel send).
func (s *OpStats) Batches() telemetry.HistogramSnapshot { return s.batches.Snapshot() }

// Watermark returns the maximum event time (µs) the operator has seen, and
// whether it has seen any timestamped tuple at all.
func (s *OpStats) Watermark() (int64, bool) {
	w := s.watermark.Load()
	return w, w != noWatermark
}

func (s *OpStats) addIn(n int64)  { s.in.Add(n) }
func (s *OpStats) addOut(n int64) { s.out.Add(n) }

// observeBatch records the size of one sent chunk.
func (s *OpStats) observeBatch(n int) { s.batches.Observe(float64(n)) }

// observeEventTime advances the operator's watermark to ts if it is ahead.
func (s *OpStats) observeEventTime(ts int64) {
	for {
		cur := s.watermark.Load()
		if cur != noWatermark && ts <= cur {
			return
		}
		if s.watermark.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// watchQueue installs the operator's output-queue probe. Builders call it
// once with the combined length/capacity of the operator's output channels.
func (s *OpStats) watchQueue(length func() int, capacity int) {
	s.qmu.Lock()
	s.queueLen = length
	s.queueCap = capacity
	s.qmu.Unlock()
}

// installShed records at build time whether the operator is gated and the
// query's knobs; the operator's emitters read both back with shedSetup when
// the query starts.
func (s *OpStats) installShed(gated bool, knobs *OverloadKnobs) {
	s.qmu.Lock()
	s.shedGated = gated
	s.shedKnobs = knobs
	s.qmu.Unlock()
}

func (s *OpStats) shedSetup() (bool, *OverloadKnobs) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.shedGated, s.shedKnobs
}

// Shed returns the operator's shed counters by reason: tuples dropped
// because their deadline passed, and because they ranked below the priority
// floor on a full edge.
func (s *OpStats) Shed() (expired, lowPriority int64) {
	return s.shedExpired.Load(), s.shedLowPri.Load()
}

func (s *OpStats) queue() (int, int) {
	s.qmu.Lock()
	length, capacity := s.queueLen, s.queueCap
	s.qmu.Unlock()
	if length == nil {
		return 0, 0
	}
	return length(), capacity
}

// StatsSnapshot is a point-in-time copy of one operator's counters,
// service-time distribution, queue occupancy, and event-time progress.
type StatsSnapshot struct {
	Name string
	In   int64
	Out  int64

	// QueueLen/QueueCap describe the operator's output channel(s) at
	// snapshot time; both are zero for operators without an output (sinks).
	QueueLen int
	QueueCap int

	// Service is the full service-time distribution (seconds); the P*
	// fields are its common quantiles pre-extracted as durations.
	Service      telemetry.HistogramSnapshot
	ServiceCount uint64
	P50          time.Duration
	P90          time.Duration
	P99          time.Duration
	MaxService   time.Duration

	// Batches is the distribution of chunk sizes (tuples per channel send);
	// BatchCount is the number of sends and AvgBatch the mean chunk size.
	Batches    telemetry.HistogramSnapshot
	BatchCount uint64
	AvgBatch   float64

	// Watermark is the operator's maximum observed event time (µs);
	// HasWatermark is false when no timestamped tuple was seen.
	// WatermarkLag is how far (µs) this operator trails the most advanced
	// operator of the same query — the engine's event-time progress skew.
	Watermark    int64
	HasWatermark bool
	WatermarkLag int64

	// Shed counters by reason (see OpStats.Shed); Shed is their sum. All
	// zero for operators without a shed gate.
	ShedExpired     int64
	ShedLowPriority int64
	Shed            int64
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// Registry tracks per-operator stats for a query. The zero value is ready to
// use. Lookups after first registration are lock-free, so operators can call
// Op on hot paths without contending with each other or with snapshots.
type Registry struct {
	ops sync.Map // string -> *OpStats
}

// Op returns the stats handle for the named operator, creating it on first
// use.
func (r *Registry) Op(name string) *OpStats {
	if s, ok := r.ops.Load(name); ok {
		return s.(*OpStats)
	}
	fresh := newOpStats()
	fresh.name = name
	s, _ := r.ops.LoadOrStore(name, fresh)
	return s.(*OpStats)
}

// noteShedBurst logs the start of a shedding episode for this operator:
// the first shed, and at most one log line per episode window afterwards,
// so a gate dropping thousands of tuples costs one event, not thousands.
func (s *OpStats) noteShedBurst(reason string) {
	const window = 5 * time.Second
	now := time.Now().UnixNano()
	last := s.shedBurstAt.Load()
	if now-last < int64(window) {
		return
	}
	if s.shedBurstAt.CompareAndSwap(last, now) {
		obslog.L("stream").Warn("shed burst", "op", s.name, "reason", reason)
	}
}

// Snapshot returns a copy of all operator stats, sorted by operator name.
// Watermark lag is computed against the maximum watermark across the
// registry's operators at snapshot time.
func (r *Registry) Snapshot() []StatsSnapshot {
	var out []StatsSnapshot
	maxWatermark := int64(noWatermark)
	r.ops.Range(func(key, value any) bool {
		s := value.(*OpStats)
		svc := s.Service()
		bat := s.Batches()
		qlen, qcap := s.queue()
		w, hasW := s.Watermark()
		shedExp, shedLow := s.Shed()
		snap := StatsSnapshot{
			Name:            key.(string),
			In:              s.In(),
			Out:             s.Out(),
			QueueLen:        qlen,
			QueueCap:        qcap,
			Service:         svc,
			ServiceCount:    svc.Count,
			P50:             durationOf(svc.Quantile(0.50)),
			P90:             durationOf(svc.Quantile(0.90)),
			P99:             durationOf(svc.Quantile(0.99)),
			MaxService:      durationOf(svc.Max),
			Batches:         bat,
			BatchCount:      bat.Count,
			Watermark:       w,
			HasWatermark:    hasW,
			ShedExpired:     shedExp,
			ShedLowPriority: shedLow,
			Shed:            shedExp + shedLow,
		}
		if bat.Count > 0 {
			snap.AvgBatch = bat.Sum / float64(bat.Count)
		}
		if hasW && w > maxWatermark {
			maxWatermark = w
		}
		out = append(out, snap)
		return true
	})
	for i := range out {
		if out[i].HasWatermark {
			out[i].WatermarkLag = maxWatermark - out[i].Watermark
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the registry as an aligned, human-readable table.
func (r *Registry) String() string {
	snap := r.Snapshot()
	var b strings.Builder
	for _, s := range snap {
		fmt.Fprintf(&b, "%-32s in=%-10d out=%-10d", s.Name, s.In, s.Out)
		if s.ServiceCount > 0 {
			fmt.Fprintf(&b, " p50=%-12v p99=%-12v", s.P50, s.P99)
		}
		if s.QueueCap > 0 {
			fmt.Fprintf(&b, " queue=%d/%d", s.QueueLen, s.QueueCap)
		}
		if s.HasWatermark {
			fmt.Fprintf(&b, " lag=%dµs", s.WatermarkLag)
		}
		if s.Shed > 0 {
			fmt.Fprintf(&b, " shed=%d", s.Shed)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Collect implements telemetry.Collector: it emits every operator's
// counters, queue capacity, service-time histogram, and watermark lag,
// labelled with the query and operator names.
func (q *Query) Collect(w *telemetry.Writer) {
	for _, s := range q.metrics.Snapshot() {
		labels := []telemetry.Label{
			telemetry.L("query", q.name),
			telemetry.L("op", s.Name),
		}
		w.Counter("strata_stream_op_tuples_in_total",
			"Tuples consumed by the operator.", float64(s.In), labels...)
		w.Counter("strata_stream_op_tuples_out_total",
			"Tuples produced by the operator.", float64(s.Out), labels...)
		if s.QueueCap > 0 {
			w.Gauge("strata_stream_op_queue_capacity",
				"Capacity (in chunks) of the operator's output channel(s).",
				float64(s.QueueCap), labels...)
		}
		if s.ServiceCount > 0 {
			w.Histogram("strata_stream_op_service_seconds",
				"Per-tuple service time, including downstream back-pressure wait.",
				s.Service, labels...)
		}
		if s.BatchCount > 0 {
			w.Histogram("strata_stream_op_batch_size",
				"Tuples per chunk sent downstream (micro-batching efficiency).",
				s.Batches, labels...)
		}
		if s.HasWatermark {
			w.Gauge("strata_stream_op_watermark_lag_seconds",
				"Event-time lag behind the query's most advanced operator.",
				float64(s.WatermarkLag)/1e6, labels...)
		}
		if s.Shed > 0 {
			const shedHelp = "Tuples shed by the operator's overload gate, by reason."
			if s.ShedExpired > 0 {
				w.Counter("strata_stream_op_shed_total", shedHelp,
					float64(s.ShedExpired), append(labels, telemetry.L("reason", "expired"))...)
			}
			if s.ShedLowPriority > 0 {
				w.Counter("strata_stream_op_shed_total", shedHelp,
					float64(s.ShedLowPriority), append(labels, telemetry.L("reason", "lowpri"))...)
			}
		}
	}
	q.traces.Collect(w)
}
