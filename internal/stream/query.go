package stream

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"strata/internal/obslog"
	"strata/internal/telemetry"
)

// operator is the runnable unit of a query. Each builder function wraps the
// user logic in an operator; Run starts one goroutine per operator.
type operator interface {
	opName() string
	// run processes tuples until its inputs are exhausted or ctx is
	// cancelled. Implementations must close their output channels before
	// returning so downstream operators observe end-of-stream.
	run(ctx context.Context) error
}

// Query is a DAG of operators connected by streams. Build it with the
// package-level builder functions, then execute it with Run. A Query is not
// safe for concurrent building, and must not be mutated once Run has been
// called.
type Query struct {
	name       string
	bufferSize int
	batchSize  int
	linger     time.Duration

	mu       sync.Mutex
	running  bool
	finished bool
	buildErr error
	ops      []operator
	opNames  map[string]struct{}
	// streams tracks, per producing operator, the consuming operator (""
	// while unconsumed). Run fails on dangling streams to catch mis-wired
	// DAGs.
	streams map[string]string

	metrics Registry
	traces  *telemetry.TraceBuffer

	// knobs are the query-wide dynamic degradation controls an overload
	// controller turns at run time (see OverloadKnobs). Neutral by default.
	knobs OverloadKnobs

	// qz coordinates drain-and-pause checkpoint epochs (see quiesce.go).
	// Inert unless EnableSnapshots was called before Run.
	qz *quiescer
	// runDone is created by Run and closed when Run returns; Checkpoint
	// watches it so a pause never outlives the query.
	runDone chan struct{}
}

// QueryOption customizes a Query at construction time.
type QueryOption func(*Query)

// WithQueryBuffer sets the default channel capacity for all streams in the
// query.
func WithQueryBuffer(n int) QueryOption {
	return func(q *Query) {
		if n > 0 {
			q.bufferSize = n
		}
	}
}

// NewQuery creates an empty query with the given name.
func NewQuery(name string, opts ...QueryOption) *Query {
	q := &Query{
		name:       name,
		bufferSize: DefaultBufferSize,
		batchSize:  DefaultBatchSize,
		linger:     DefaultLinger,
		opNames:    make(map[string]struct{}),
		streams:    make(map[string]string),
		traces: telemetry.NewTraceBuffer(telemetry.DefaultTraceCapacity).
			WithLabels(telemetry.L("query", name)),
		qz: new(quiescer),
	}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Name returns the query's name.
func (q *Query) Name() string { return q.name }

// Metrics returns the query's operator-counter registry.
func (q *Query) Metrics() *Registry { return &q.metrics }

// Traces returns the query's completed-trace buffer: sinks file every
// sampled tuple's trace here when it finishes. Use Slowest/Recent to inspect
// per-operator span timelines.
func (q *Query) Traces() *telemetry.TraceBuffer { return q.traces }

// Err returns the first error recorded while building the query, if any.
// Run returns the same error, so checking Err explicitly is optional.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.buildErr
}

func (q *Query) recordErr(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.buildErr == nil {
		q.buildErr = err
	}
}

func (q *Query) streamCreated(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.streams[name] = ""
}

func (q *Query) streamConsumed(name, consumer string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.streams[name] = consumer
}

// addOperator registers op, enforcing unique names and rejecting changes to a
// running query.
func (q *Query) addOperator(op operator) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.running {
		if q.buildErr == nil {
			q.buildErr = ErrQueryRunning
		}
		return
	}
	if _, dup := q.opNames[op.opName()]; dup {
		if q.buildErr == nil {
			q.buildErr = fmt.Errorf("%w: %q", ErrDuplicateName, op.opName())
		}
		return
	}
	q.opNames[op.opName()] = struct{}{}
	q.ops = append(q.ops, op)
}

// Run executes the query until every source is exhausted and all tuples have
// drained through the sinks, or until ctx is cancelled, or an operator
// returns an error. It returns the first error encountered (nil on a clean
// drain; ctx.Err() on cancellation).
func (q *Query) Run(ctx context.Context) error {
	q.mu.Lock()
	if q.buildErr != nil {
		err := q.buildErr
		q.mu.Unlock()
		return err
	}
	if q.running {
		q.mu.Unlock()
		return ErrQueryRunning
	}
	if q.finished {
		q.mu.Unlock()
		return ErrQueryFinished
	}
	if len(q.ops) == 0 {
		q.mu.Unlock()
		return ErrNoOperators
	}
	for name, consumer := range q.streams {
		if consumer == "" {
			q.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrDanglingStream, name)
		}
	}
	q.running = true
	q.runDone = make(chan struct{})
	runDone := q.runDone
	ops := make([]operator, len(q.ops))
	copy(ops, q.ops)
	q.mu.Unlock()

	defer func() {
		close(runDone)
		q.mu.Lock()
		q.running = false
		q.finished = true
		q.mu.Unlock()
	}()

	parent := ctx
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, op := range ops {
		wg.Add(1)
		go func(op operator) {
			defer wg.Done()
			if err := runOp(ctx, op); err != nil {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("operator %q: %w", op.opName(), err)
					cancel()
				})
			}
		}(op)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Sources swallow the context error they stop on (see sourceOp.run), and
	// whether any other operator was parked on ctx at that moment is a
	// race; the caller's context ending the query is reported here, always.
	return parent.Err()
}

// runOp is the backstop around an operator goroutine: every operator's run
// already recovers its own panics (see recoverPanic), but any operator added
// without that defer is still contained here rather than killing the
// process.
func runOp(ctx context.Context, op operator) (err error) {
	defer recoverPanic(&err)
	return op.run(ctx)
}

// recoverPanic converts an in-flight panic into an operator error carrying
// the panic value and stack. Deferred first in every operator run loop so
// the operator's own defers (closing output channels, so downstream sees
// end-of-stream) still execute during unwinding before the panic is
// swallowed. The flight recorder is dumped before the panic is converted:
// an operator panic is a crash even though the process survives it.
func recoverPanic(errp *error) {
	if r := recover(); r != nil {
		obslog.Crash("operator panic", "panic", fmt.Sprint(r))
		*errp = fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack())
	}
}

// emit sends v on ch unless ctx is done first. It is the single send path all
// operators use, so cancellation is honoured even when downstream channels
// are full.
func emit[T any](ctx context.Context, ch chan<- T, v T) error {
	select {
	case ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
