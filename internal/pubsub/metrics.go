package pubsub

import (
	"strconv"
	"strings"
	"sync"

	"strata/internal/telemetry"
)

// maxSubjectLabels bounds the cardinality of per-subject metrics: a broker
// relaying arbitrary application subjects must not grow an unbounded label
// set. Once the table is full, new subjects are accounted under the
// overflowSubject label; the unique per-request `_INBOX.*` reply subjects
// are collapsed upfront so they never exhaust the table.
const maxSubjectLabels = 64

const overflowSubject = "_other"

type subjectCount struct {
	published uint64
	delivered uint64
}

// subjectCounters is a bounded per-subject publish/deliver tally. One short
// mutexed update per publish — negligible next to the broker's own locking.
type subjectCounters struct {
	mu sync.Mutex
	m  map[string]*subjectCount
}

// collapseSubject folds high-cardinality machine-generated subjects into
// stable label values.
func collapseSubject(subject string) string {
	if subject == inboxPrefix || strings.HasPrefix(subject, inboxPrefix+".") {
		return inboxPrefix + ".*"
	}
	return subject
}

func (c *subjectCounters) record(subject string, delivered uint64) {
	key := collapseSubject(subject)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*subjectCount)
	}
	sc, ok := c.m[key]
	if !ok {
		if len(c.m) >= maxSubjectLabels {
			key = overflowSubject
			sc = c.m[key]
		}
		if sc == nil {
			sc = &subjectCount{}
			c.m[key] = sc
		}
	}
	sc.published++
	sc.delivered += delivered
}

func (c *subjectCounters) snapshot() map[string]subjectCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]subjectCount, len(c.m))
	for k, v := range c.m {
		out[k] = *v
	}
	return out
}

// Collect implements telemetry.Collector: broker totals, bounded per-subject
// publish/deliver counters, and per-subscription buffer depth.
func (b *Broker) Collect(w *telemetry.Writer) {
	st := b.Stats()
	w.Counter("strata_pubsub_published_total",
		"Messages published to the broker.", float64(st.Published))
	w.Counter("strata_pubsub_dropped_total",
		"Messages discarded by subscription overflow policies or too large to forward.",
		float64(b.droppedTotal.Load()))
	w.Gauge("strata_pubsub_subscriptions",
		"Live subscriptions.", float64(st.Subscriptions))
	w.Counter("strata_pubsub_slow_consumers_evicted_total",
		"Subscriptions force-closed by the slow-consumer timeout.",
		float64(st.Evicted))

	for subject, sc := range b.subjects.snapshot() {
		label := telemetry.L("subject", subject)
		w.Counter("strata_pubsub_subject_published_total",
			"Messages published, by subject.", float64(sc.published), label)
		w.Counter("strata_pubsub_subject_delivered_total",
			"Message deliveries, by subject.", float64(sc.delivered), label)
	}

	b.mu.RLock()
	subs := make([]*Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.RUnlock()
	for _, s := range subs {
		labels := []telemetry.Label{
			telemetry.L("id", strconv.FormatUint(s.id, 10)),
			telemetry.L("pattern", s.pattern),
		}
		w.Gauge("strata_pubsub_sub_pending",
			"Messages buffered in the subscription awaiting the consumer.",
			float64(len(s.ch)), labels...)
		w.Gauge("strata_pubsub_sub_capacity",
			"Subscription buffer capacity.", float64(cap(s.ch)), labels...)
	}
}

// Collect implements telemetry.Collector: how many fsyncs a topic log
// store's group commit avoided (appends that asked for durability minus
// fsyncs issued).
func (ls *LogStore) Collect(w *telemetry.Writer) {
	commits, syncs := ls.SyncStats()
	saved := float64(0)
	if commits > syncs {
		saved = float64(commits - syncs)
	}
	w.Counter("strata_pubsub_log_syncs_saved_total",
		"fsyncs avoided by group-commit coalescing (commits minus syncs).",
		saved)
}

// Collect implements telemetry.Collector: TCP accept/active/reap counters
// for the wire-protocol server.
func (s *Server) Collect(w *telemetry.Writer) {
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	w.Counter("strata_pubsub_server_accepted_total",
		"TCP client connections accepted.", float64(s.accepted.Load()))
	w.Counter("strata_pubsub_server_reaped_total",
		"Connections closed by the idle timeout.", float64(s.reaped.Load()))
	w.Gauge("strata_pubsub_server_connections",
		"Currently connected TCP clients.", float64(active))
	frames := s.wstats.frames.Load()
	flushes := s.wstats.flushes.Load()
	saved := float64(0)
	if frames > flushes {
		saved = float64(frames - flushes)
	}
	w.Counter("strata_pubsub_server_flushes_saved_total",
		"Flush syscalls avoided by write-side corking (frames minus flushes).",
		saved)
}

// Collect implements telemetry.Collector: link state and durability counters
// of a self-healing client connection.
func (rc *ReconnectConn) Collect(w *telemetry.Writer) {
	connected := 0.0
	if rc.IsConnected() {
		connected = 1
	}
	w.Gauge("strata_pubsub_client_connected",
		"1 while the client holds a live link to the server.", connected)
	w.Counter("strata_pubsub_client_reconnects_total",
		"Successful reconnects after a lost link.", float64(rc.Reconnects()))
	w.Gauge("strata_pubsub_client_pending",
		"Publishes buffered while disconnected.", float64(rc.Pending()))
}
