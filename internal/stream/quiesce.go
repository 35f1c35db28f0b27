package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrSnapshotsDisabled is returned by Checkpoint on a query that was not
	// built with EnableSnapshots. The quiescence machinery costs one atomic
	// per source tuple and two per chunk per operator, so it is opt-in.
	ErrSnapshotsDisabled = errors.New("stream: snapshots not enabled for this query")

	// ErrQueryNotRunning is returned by Checkpoint when the query has not
	// started or has already finished.
	ErrQueryNotRunning = errors.New("stream: query is not running")

	// ErrQueryFailing is returned by Checkpoint when an operator exited with
	// an error while the checkpoint was pausing the query: the operator's
	// state may be mid-mutation, so no consistent snapshot exists.
	ErrQueryFailing = errors.New("stream: query failing during checkpoint")
)

// quiescer coordinates drain-and-pause epochs for one query. The protocol:
//
//  1. Pause the source gate: every source emit passes through enter/exit;
//     once paused is set, new emits block on the resume channel, and the
//     coordinator waits for the in-flight emit count to drop to zero.
//  2. Flush the source-side chunkers, so tuples buffered for batching are
//     pushed onto the operator edges (PR 4's chunked channels).
//  3. Poll for stability: all operator guards idle, all edges empty, and the
//     activity counter unchanged across the whole scan (every channel send
//     and receive bumps it, so an unchanged counter proves the individual
//     probes form a consistent snapshot).
//
// A parked operator goroutine waits on all of its inputs at once (the join
// selects on both sides; a merge runs one goroutine per branch), so with
// sources gated and chunkers flushed every edge drains into its consumer and
// the scan converges without any operator being told that a pause began.
//
// Once stable, every tuple ever emitted has been fully processed and each
// operator's goroutine is parked at a channel receive: operator state can be
// read (and serialized) from the coordinator goroutine without races — the
// guard atomics the operators store on every dequeue give the coordinator a
// happens-before edge to their latest state writes.
//
// While paused, end-of-stream propagation is also held back: operators close
// their output channels through closeGated, which waits out the pause, so an
// EOS cascade (which mutates window state via final flushes) can never start
// between stability and the end of the snapshot.
type quiescer struct {
	// enabled is set by Query.EnableSnapshots before Run and never written
	// afterwards, so operator goroutines may read it without synchronization.
	enabled bool

	// act counts state transitions: every chunk send, every dequeue, and
	// every operator failure bumps it. The stability scan reads it before and
	// after probing; an unchanged value means nothing moved during the scan.
	act atomic.Uint64

	// inflight counts chunks deposited on an edge but not yet claimed by
	// their receiver's guard. Senders increment before the channel send;
	// receivers decrement only after raising their busy flag. This closes
	// the window between a channel receive completing and the busy store —
	// during it the channel already reads empty but the guard still reads
	// idle, so channel-length probes alone would declare stability with a
	// chunk mid-handoff.
	inflight atomic.Int64

	// inEmit counts source emits currently inside the gate (entered, not yet
	// exited). The pause waits for it to reach zero before trusting the
	// chunker flush.
	inEmit atomic.Int64

	// paused is the gate flag; the mutex orders it with the resume channel.
	paused atomic.Bool

	// failed is set when any operator run returns a non-nil error. Sticky:
	// a failing query has no consistent snapshot to offer.
	failed atomic.Bool

	mu       sync.Mutex
	resume   chan struct{} // non-nil while paused; closed to resume
	guards   []*opGuard
	edges    []func() int   // len() probes, one per stream channel
	flushers []func() error // source chunker flushNow hooks, run-time registered

	// ckptMu serializes Checkpoint calls (one pause epoch at a time).
	ckptMu sync.Mutex
}

// opGuard tracks one operator goroutine's busy/idle state. Operators mark
// active immediately after every successful (or failed) channel receive and
// idle before every blocking receive; the coordinator treats "all guards
// idle" as one leg of the stability proof. All methods are no-ops while
// snapshots are disabled.
type opGuard struct {
	qz   *quiescer
	busy atomic.Bool
}

// newGuard registers a guard with the quiescer. Builders call it once per
// operator goroutine (merge registers one per input branch).
func (z *quiescer) newGuard() *opGuard {
	g := &opGuard{qz: z}
	z.mu.Lock()
	z.guards = append(z.guards, g)
	z.mu.Unlock()
	return g
}

// recv marks the goroutine busy after a channel receive and, when the
// receive carried a chunk (ok), claims it from the in-flight count. The
// order matters: busy is raised, then the activity counter bumps, then the
// in-flight count drops — so by the time a stability scan can observe
// inflight at zero, either the busy flag or the activity change is visible.
func (g *opGuard) recv(ok bool) {
	if !g.qz.enabled {
		return
	}
	g.busy.Store(true)
	g.qz.act.Add(1)
	if ok {
		g.qz.inflight.Add(-1)
	}
}

// idle marks the goroutine parked. Operators call it right before blocking
// on a channel receive; everything the iteration wrote happens-before this
// store, which the coordinator's load acquires.
func (g *opGuard) idle() {
	if !g.qz.enabled {
		return
	}
	g.busy.Store(false)
}

// drain is the receive loop of every operator goroutine but the join's: it
// marks g idle before each blocking receive and busy after it, hands each
// chunk to fn, and returns nil at end-of-stream, fn's first error, or the
// context's.
func drain[T any](ctx context.Context, g *opGuard, in <-chan []T, fn func([]T) error) error {
	for {
		g.idle()
		select {
		case chunk, ok := <-in:
			g.recv(ok)
			if !ok {
				return nil
			}
			if err := fn(chunk); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// exit is deferred by every operator run: it records a failing exit with the
// quiescer (so an in-flight checkpoint aborts instead of snapshotting a
// half-mutated operator) and clears the busy flag. It must run before the
// operator's gated output close, which blocks for the duration of a pause.
func (g *opGuard) exit(errp *error) {
	if !g.qz.enabled {
		return
	}
	if *errp != nil {
		g.qz.noteFailure()
	}
	g.busy.Store(false)
}

// waitUnpaused blocks while a pause epoch is in progress. It deliberately
// ignores ctx: the coordinator always resumes (deferred), and honoring
// cancellation here would let an EOS cascade race the snapshot reads.
func (z *quiescer) waitUnpaused() {
	if !z.enabled {
		return
	}
	for {
		z.mu.Lock()
		if !z.paused.Load() {
			z.mu.Unlock()
			return
		}
		resume := z.resume
		z.mu.Unlock()
		<-resume
	}
}

// closeGated closes a channel, waiting out any pause first: end-of-stream
// must not propagate into downstream operators (whose final flushes mutate
// the state being snapshotted) during a pause epoch.
func closeGated[T any](g *opGuard, ch chan []T) {
	g.qz.waitUnpaused()
	close(ch)
}

// enter begins one source emit. Fast path: one counter bump and one flag
// load. When paused, the emit parks on the resume channel (or aborts with
// the context).
func (z *quiescer) enter(ctx context.Context) error {
	if !z.enabled {
		return nil
	}
	z.inEmit.Add(1)
	if !z.paused.Load() {
		return nil
	}
	z.inEmit.Add(-1)
	for {
		z.mu.Lock()
		if !z.paused.Load() {
			z.inEmit.Add(1)
			z.mu.Unlock()
			return nil
		}
		resume := z.resume
		z.mu.Unlock()
		select {
		case <-resume:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// exitEmit ends one source emit span.
func (z *quiescer) exitEmit() {
	if z.enabled {
		z.inEmit.Add(-1)
	}
}

// noteFailure records an operator error. The activity bump forces any
// concurrent stability scan to retry and observe the failed flag.
func (z *quiescer) noteFailure() {
	z.failed.Store(true)
	z.act.Add(1)
}

// addEdge registers a channel-length probe for one stream edge (build time).
func (z *quiescer) addEdge(probe func() int) {
	z.mu.Lock()
	z.edges = append(z.edges, probe)
	z.mu.Unlock()
}

// addFlusher registers a source chunker's external flush (run time, before
// the source's first emit).
func (z *quiescer) addFlusher(f func() error) {
	z.mu.Lock()
	z.flushers = append(z.flushers, f)
	z.mu.Unlock()
}

// sendChunk is the instrumented chunk send: the chunk is counted in flight
// before it is deposited and stays counted until its receiver claims it (see
// opGuard.recv), so a chunk is visible to the stability scan at every moment
// of its handoff.
func sendChunk[T any](z *quiescer, ctx context.Context, ch chan<- []T, chunk []T) error {
	if !z.enabled {
		return emit(ctx, ch, chunk)
	}
	z.inflight.Add(1)
	z.act.Add(1)
	err := emit(ctx, ch, chunk)
	if err != nil {
		z.inflight.Add(-1) // never deposited
	}
	return err
}

// pause drives the drain-and-pause epoch and returns the resume function.
// On error the query is already resumed.
func (z *quiescer) pause(ctx context.Context, runDone <-chan struct{}) (func(), error) {
	z.mu.Lock()
	z.resume = make(chan struct{})
	z.paused.Store(true)
	z.mu.Unlock()

	var once sync.Once
	resume := func() {
		once.Do(func() {
			z.mu.Lock()
			z.paused.Store(false)
			close(z.resume)
			z.mu.Unlock()
		})
	}

	// 1. Drain in-flight source emits.
	if err := z.poll(ctx, runDone, func() bool { return z.inEmit.Load() == 0 }); err != nil {
		resume()
		return nil, err
	}

	// 2. Flush source chunkers so buffered tuples reach the edges. New
	// buffering is impossible: every emit that could add to a chunker is
	// blocked at the gate, so the buffers stay empty afterwards.
	z.mu.Lock()
	flushers := make([]func() error, len(z.flushers))
	copy(flushers, z.flushers)
	z.mu.Unlock()
	for _, f := range flushers {
		if err := f(); err != nil {
			resume()
			return nil, err
		}
	}

	// 3. Stable scan: activity counter unchanged across (guards idle ∧ edges
	// empty ∧ no emit spans).
	if err := z.poll(ctx, runDone, z.stableOnce); err != nil {
		resume()
		return nil, err
	}
	return resume, nil
}

// stableOnce performs one stability scan.
func (z *quiescer) stableOnce() bool {
	c1 := z.act.Load()
	if z.inEmit.Load() != 0 || z.inflight.Load() != 0 {
		return false
	}
	z.mu.Lock()
	guards := z.guards
	edges := z.edges
	z.mu.Unlock()
	for _, g := range guards {
		if g.busy.Load() {
			return false
		}
	}
	// The in-flight count already covers chunks mid-handoff; the channel
	// probes are defense in depth against any send that bypassed sendChunk.
	for _, probe := range edges {
		if probe() > 0 {
			return false
		}
	}
	return z.act.Load() == c1
}

// poll retries cond with escalating backoff until it holds, the context
// expires, the query's Run returns, or an operator fails.
func (z *quiescer) poll(ctx context.Context, runDone <-chan struct{}, cond func() bool) error {
	backoff := 20 * time.Microsecond
	for {
		if z.failed.Load() {
			return ErrQueryFailing
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-runDone:
			return ErrQueryNotRunning
		default:
		}
		if cond() {
			return nil
		}
		time.Sleep(backoff)
		if backoff < time.Millisecond {
			backoff *= 2
		}
	}
}
