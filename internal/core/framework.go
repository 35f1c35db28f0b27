package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"strata/internal/kvstore"
	"strata/internal/pubsub"
	"strata/internal/stream"
	"strata/internal/telemetry"
)

var (
	// ErrBadPipeline is recorded when API calls are composed in a way
	// Table 1 forbids (e.g. correlateEvents on a non-detectEvent stream).
	ErrBadPipeline = errors.New("strata: invalid pipeline composition")

	// ErrNotFound is returned by Get for absent keys.
	ErrNotFound = kvstore.ErrNotFound
)

// streamKind tracks which API method produced a stream, to enforce the
// composition rules of Table 1.
type streamKind int

const (
	kindSource streamKind = iota + 1
	kindFuse
	kindPartition
	kindDetect
	kindCorrelate
)

// StreamRef is a handle to a STRATA stream, returned by the API methods and
// passed as the input of downstream methods.
type StreamRef struct {
	name string
	kind streamKind
	// layerGranular is true while each tuple still covers a whole layer
	// (sources and fuse); the first sub-layer stage emits end-of-layer
	// markers and clears it.
	layerGranular bool
	// At most one of s / branches / chain is set (none on a mis-built
	// ref). A parallel stage leaves its output split per branch
	// (hash-partitioned on (job, specimen)), so a same-parallelism
	// downstream stage chains branch-to-branch without a merge+shuffle
	// round trip.
	s        *stream.Stream[EventTuple]
	branches []*stream.Stream[EventTuple]
	// chain is a Partition/DetectEvent run not compiled yet. A stage with
	// the same parallelism extends it (and sets chained here); any other
	// consumer compiles it into s or branches.
	chain   *stageChain
	chained bool
	// byJob marks the output of a parallel stage whose input was
	// layer-granular. Layer tuples all carry DefaultSpecimen, so the shuffle
	// in front of that stage split them by job alone: every specimen of a
	// job sits on one branch. No stage extends such a chain, and a parallel
	// consumer reshuffles its branches on (job, specimen) instead of reusing
	// them.
	byJob bool
}

// Name returns the stream's name.
func (r *StreamRef) Name() string { return r.name }

// singleStream returns the ref as one stream, merging branches (arrival
// order) when the upstream stage was parallel.
func (r *StreamRef) singleStream(fw *Framework, consumer string) *stream.Stream[EventTuple] {
	r.compile(fw)
	if r.s != nil {
		return r.s
	}
	if len(r.branches) == 0 {
		// Mis-built upstream already recorded an error; return a dead
		// stream so building can continue and surface that error.
		return stream.AddSource(fw.query, consumer+".dead", func(context.Context, stream.Emit[EventTuple]) error {
			return nil
		})
	}
	return stream.Merge(fw.query, consumer+".in-merge", r.branches)
}

// branchStreams returns the ref as n branches hash-partitioned on (job,
// specimen). It reuses the upstream split when that split is already on
// (job, specimen) with n branches, and merges and reshuffles otherwise.
func (r *StreamRef) branchStreams(fw *Framework, consumer string, n int) []*stream.Stream[EventTuple] {
	r.compile(fw)
	if r.s == nil && len(r.branches) == n && !r.byJob {
		return r.branches
	}
	return stream.Shuffle(fw.query, consumer+".shuffle", r.singleStream(fw, consumer), n, specimenHash)
}

// Framework is one STRATA deployment: an SPE query under construction, the
// key-value store, and (optionally) a pub/sub broker for module connectors.
type Framework struct {
	name    string
	query   *stream.Query
	store   *kvstore.DB
	broker  *pubsub.Broker
	sampler *telemetry.Sampler // nil without WithTraceSampling

	ownStore  bool
	ownBroker bool

	// Checkpoint wiring (see checkpoint.go). ckptEnabled, restored, and
	// lastEpoch are written before the user build function runs and read
	// afterwards, so they need no locking; durableSinks is guarded by mu.
	ckptEnabled  bool
	restored     *ckptEpoch
	lastEpoch    uint64
	durableSinks map[string]*durableSink

	// Degraded-operation state, written by the manager's overload
	// controller (see overload.go) and read on pipeline hot paths.
	srcPaused atomic.Bool // park source collectors (best-effort pipelines)

	mu       sync.Mutex
	buildErr error
	// pendingChains are the refs whose stage chain may still be
	// uncompiled; Err compiles those no stage extended.
	pendingChains []*StreamRef
}

// Option customizes New.
type Option func(*config)

type config struct {
	storeDir    string
	store       *kvstore.DB
	broker      *pubsub.Broker
	queryBuffer int
	name        string
	traceEvery  int
}

// WithStoreDir opens (or creates) the framework's key-value store in dir.
// Without it, an in-memory-backed temporary store is NOT created — the
// framework requires either WithStoreDir or WithStore.
func WithStoreDir(dir string) Option {
	return func(c *config) { c.storeDir = dir }
}

// WithStore uses an existing store (shared across frameworks/pipelines).
// The caller keeps ownership and must close it.
func WithStore(db *kvstore.DB) Option {
	return func(c *config) { c.store = db }
}

// WithBroker attaches a pub/sub broker: module-boundary connectors publish
// raw data and events on it (see Connector subjects in connector.go). The
// caller keeps ownership.
func WithBroker(b *pubsub.Broker) Option {
	return func(c *config) { c.broker = b }
}

// WithQueryBuffer sets the SPE channel capacity between operators.
func WithQueryBuffer(n int) Option {
	return func(c *config) { c.queryBuffer = n }
}

// WithName names the framework's query (diagnostics only).
func WithName(name string) Option {
	return func(c *config) {
		if name != "" {
			c.name = name
		}
	}
}

// WithTraceSampling attaches a trace context to one in every n source
// tuples. Each sampled tuple carries an operator-by-operator span timeline
// through the whole pipeline; the finished traces are queryable through
// Traces (and, via Manager, /debug/traces). n <= 0 disables tracing (the
// default).
func WithTraceSampling(n int) Option {
	return func(c *config) { c.traceEvery = n }
}

// New creates a framework. Exactly one of WithStoreDir / WithStore must be
// provided.
func New(opts ...Option) (*Framework, error) {
	cfg := config{name: "strata"}
	for _, o := range opts {
		o(&cfg)
	}
	if (cfg.store == nil) == (cfg.storeDir == "") {
		return nil, fmt.Errorf("strata: exactly one of WithStoreDir or WithStore is required")
	}
	fw := &Framework{name: cfg.name, store: cfg.store, broker: cfg.broker}
	if cfg.traceEvery > 0 {
		fw.sampler = telemetry.NewSampler(cfg.traceEvery)
	}
	if cfg.storeDir != "" {
		db, err := kvstore.Open(cfg.storeDir)
		if err != nil {
			return nil, err
		}
		fw.store = db
		fw.ownStore = true
	}
	var qopts []stream.QueryOption
	if cfg.queryBuffer > 0 {
		qopts = append(qopts, stream.WithQueryBuffer(cfg.queryBuffer))
	}
	fw.query = stream.NewQuery(cfg.name, qopts...)
	return fw, nil
}

// Query exposes the underlying SPE query (metrics, diagnostics).
func (fw *Framework) Query() *stream.Query { return fw.query }

// Traces returns the pipeline's finished sampled traces (empty without
// WithTraceSampling).
func (fw *Framework) Traces() *telemetry.TraceBuffer { return fw.query.Traces() }

// Collect implements telemetry.Collector: the per-operator stream metrics
// of the framework's query (throughput, service-time quantiles, queue
// depth, watermark lag), plus the key-value store's metrics when the
// framework opened the store itself (a shared store is collected by its
// owner instead, so samples are never duplicated).
func (fw *Framework) Collect(w *telemetry.Writer) {
	fw.query.Collect(w)
	if fw.ownStore {
		fw.store.Collect(w)
	}
	fw.mu.Lock()
	for name, ds := range fw.durableSinks {
		if n := ds.expired.Load(); n > 0 {
			w.Counter("strata_overload_expired_effects_total",
				"Result tuples whose deadline passed before the durable sink, suppressed instead of committed late.",
				float64(n),
				telemetry.L("pipeline", fw.name), telemetry.L("sink", name))
		}
	}
	fw.mu.Unlock()
}

// Broker returns the attached broker (nil when none).
func (fw *Framework) Broker() *pubsub.Broker { return fw.broker }

func (fw *Framework) recordErr(err error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.buildErr == nil {
		fw.buildErr = err
	}
}

// Err returns the first pipeline-composition error recorded while building.
// It first compiles every stage chain nothing consumed, so an error that
// only shows once the operators exist (a stream consumed twice) surfaces
// here, and an unconsumed stage still fails Run with
// stream.ErrDanglingStream.
func (fw *Framework) Err() error {
	fw.mu.Lock()
	pending := fw.pendingChains
	fw.pendingChains = nil
	fw.mu.Unlock()
	for _, r := range pending {
		if !r.chained {
			r.compile(fw)
		}
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.buildErr != nil {
		return fw.buildErr
	}
	return fw.query.Err()
}

// Run executes the deployed pipelines until every source is exhausted or
// ctx is cancelled.
func (fw *Framework) Run(ctx context.Context) error {
	if err := fw.Err(); err != nil {
		return err
	}
	return fw.query.Run(ctx)
}

// Close releases owned resources (the store, when the framework opened it).
func (fw *Framework) Close() error {
	var firstErr error
	if fw.ownStore && fw.store != nil {
		if err := fw.store.Close(); err != nil && !errors.Is(err, kvstore.ErrClosed) {
			firstErr = err
		}
	}
	return firstErr
}

// Store persists a value in the key-value store (Table 1's store(k,v)).
// It can be called from any user function at any time.
func (fw *Framework) Store(key string, value []byte) error {
	return fw.store.Put([]byte(key), value)
}

// Get retrieves a value from the key-value store (Table 1's get(k,v)).
func (fw *Framework) Get(key string) ([]byte, error) {
	return fw.store.Get([]byte(key))
}

// StoreFloat persists a float64 under key.
func (fw *Framework) StoreFloat(key string, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return fw.Store(key, buf[:])
}

// GetFloat retrieves a float64 stored with StoreFloat.
func (fw *Framework) GetFloat(key string) (float64, error) {
	b, err := fw.Get(key)
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("strata: key %q does not hold a float64 (%d bytes)", key, len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// ScanPrefix iterates the live keys beginning with prefix, in order.
func (fw *Framework) ScanPrefix(prefix string, fn func(key string, value []byte) bool) error {
	return fw.store.ScanPrefix([]byte(prefix), func(k, v []byte) bool {
		return fn(string(k), v)
	})
}
