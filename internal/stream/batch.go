package stream

import (
	"context"
	"sync"
	"time"
)

// DefaultBatchSize is the number of tuples coalesced into one chunk before a
// channel send. 64 amortizes
// the per-send synchronization well while keeping chunks small enough that a
// full edge (DefaultBufferSize chunks) stays modest.
const DefaultBatchSize = 64

// DefaultLinger bounds how long a source holds a partial chunk open waiting
// for it to fill. It is deliberately small: with the default, a lone tuple
// reaches the first downstream operator well under a millisecond after being
// emitted, so interactive latency survives batching.
const DefaultLinger = 200 * time.Microsecond

// chunker is the source-side batching layer: it buffers emitted tuples until
// the chunk is full (max) or the linger deadline fires, then sends the chunk
// downstream. It is safe for the linger timer goroutine and the source
// goroutine to race; the mutex is held across the channel send so chunks
// leave in emission order (a linger fire cannot overtake a full-buffer
// flush). Chunk buffers come from the per-type pool (chunkpool.go); the
// consumer that finishes a chunk recycles it.
type chunker[T any] struct {
	ctx    context.Context
	qz     *quiescer
	out    chan []T
	max    int
	linger time.Duration
	stats  *OpStats
	pool   *sync.Pool
	// gate is the operator's shed gate (nil unless WithShedGate); knobs
	// are the query's dynamic overload controls (nil only in unit tests
	// that construct chunkers directly).
	gate  *shedGate[T]
	knobs *OverloadKnobs

	mu     sync.Mutex
	buf    []T
	timer  *time.Timer
	armed  bool
	closed bool
	err    error
}

func newChunker[T any](ctx context.Context, qz *quiescer, out chan []T, max int, linger time.Duration, stats *OpStats) *chunker[T] {
	if max < 1 {
		max = 1
	}
	_, knobs := stats.shedSetup()
	return &chunker[T]{
		ctx: ctx, qz: qz, out: out, max: max, linger: linger, stats: stats,
		pool: chunkPoolFor[T](),
		gate: newShedGate(out, stats), knobs: knobs,
	}
}

// emit buffers v, flushing when the chunk reaches max tuples. With max == 1
// it degenerates to an unbuffered, lock-free send — the classic per-tuple
// semantics (dynamic batch boost deliberately leaves max == 1 operators
// alone, so the lock-free path stays race-free). Departure accounting
// (produced count, source watermark) lives here so shed tuples never count
// as produced. v is buffered before the gate decision so every interface
// check (shed policy, watermark) runs against a heap-resident tuple — a shed
// just truncates the buffer again.
func (c *chunker[T]) emit(v T) error {
	if c.max == 1 {
		chunk := getChunk[T](c.pool, 1)
		chunk = append(chunk, v)
		if !c.gate.admit(&chunk[0]) {
			recycleChunk(c.pool, chunk)
			return nil
		}
		c.stats.observeBatch(1)
		observeDeparture(c.stats, &chunk[0])
		return sendChunk(c.qz, c.ctx, c.out, chunk)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return context.Canceled
	}
	max := c.knobs.boostedMax(c.max)
	if c.buf == nil {
		c.buf = getChunk[T](c.pool, max)
	}
	c.buf = append(c.buf, v)
	i := len(c.buf) - 1
	if !c.gate.admit(&c.buf[i]) {
		var zero T
		c.buf[i] = zero
		c.buf = c.buf[:i]
		return nil
	}
	observeDeparture(c.stats, &c.buf[i])
	if len(c.buf) >= max {
		if err := c.flushLocked(); err != nil {
			c.err = err
			return err
		}
		return nil
	}
	if linger := c.knobs.boostedLinger(c.linger); linger > 0 && !c.armed {
		c.armed = true
		if c.timer == nil {
			c.timer = time.AfterFunc(linger, c.lingerFire)
		} else {
			c.timer.Reset(linger)
		}
	}
	return nil
}

// flushLocked sends the buffered chunk while holding c.mu. Back-pressure
// applies here: a full downstream channel blocks the flush (and therefore
// the source), exactly as the unbatched engine blocked per tuple.
// Cancellation still unblocks the send via ctx inside emit. The send
// transfers chunk ownership downstream — the buffer must not be touched
// again here.
func (c *chunker[T]) flushLocked() error {
	if len(c.buf) == 0 {
		return nil
	}
	chunk := c.buf
	c.buf = nil
	if c.armed {
		c.timer.Stop()
		c.armed = false
	}
	c.stats.observeBatch(len(chunk))
	return sendChunk(c.qz, c.ctx, c.out, chunk)
}

// flushNow pushes any buffered partial chunk downstream. It is the
// checkpoint coordinator's hook: during a pause epoch (sources gated, no new
// emits possible) it empties the batching buffer so the stability scan can
// account for every tuple on the channel edges.
func (c *chunker[T]) flushNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return c.err
	}
	return c.flushLocked()
}

// lingerFire runs on the timer goroutine when a partial chunk has waited its
// full linger. After close it is a no-op, so a late fire can never send on a
// closed output channel.
func (c *chunker[T]) lingerFire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
	if c.closed || c.err != nil {
		return
	}
	if err := c.flushLocked(); err != nil {
		c.err = err
	}
}

// close flushes the final partial chunk and stops the linger timer. It must
// be called before the output channel is closed; once it returns, no timer
// fire will touch the channel again.
func (c *chunker[T]) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
		c.armed = false
	}
	if c.err != nil {
		return c.err
	}
	return c.flushLocked()
}

// observeChunkArrival records one consumed chunk: one atomic add for the
// whole chunk's input count and a single watermark advance to the chunk's
// maximum event time (the watermark is a running max, so observing only the
// max is equivalent to observing every tuple).
func observeChunkArrival[T any](s *OpStats, chunk []T) {
	s.addIn(int64(len(chunk)))
	var (
		max  int64
		seen bool
	)
	for i := range chunk {
		if t, ok := eventTimeOf(&chunk[i]); ok {
			if !seen || t > max {
				max, seen = t, true
			}
		}
	}
	if seen {
		s.observeEventTime(max)
	}
}

// observeServiceChunk attributes a chunk's total processing time to its n
// tuples as n equal per-tuple samples, so ServiceCount and the service-time
// mean stay per-tuple exact while the measurement itself (two clock reads,
// one histogram update) is paid once per chunk.
func (s *OpStats) observeServiceChunk(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	s.service.ObserveN(d.Seconds()/float64(n), uint64(n))
}

// recordChunkSpans stamps the operator's span on every traced tuple of the
// chunk, attributing the chunk-average duration to each. Tuples are sampled
// for tracing, so the common case is one failed interface assertion per
// tuple and no atomic work.
func recordChunkSpans[T any](name string, chunk []T, total time.Duration) {
	if len(chunk) == 0 {
		return
	}
	per := total / time.Duration(len(chunk))
	for i := range chunk {
		recordSpan(name, &chunk[i], per)
	}
}

// pendingSpans holds the input chunk an operator is working through until
// its traced tuples' spans are recorded. The emitter records them before
// the first output chunk leaves (a full chunk can be sent mid-input), and
// the operator after the input chunk is done, whichever comes first: a sink
// that finishes a trace drops any span recorded after it, so a span must
// never trail the tuple's output downstream. An early record attributes
// the time elapsed so far, averaged over the chunk.
type pendingSpans[T any] struct {
	name  string
	chunk []T
	start time.Time
}

func (s *pendingSpans[T]) open(chunk []T, start time.Time) { s.chunk, s.start = chunk, start }

// record stamps the open chunk's spans, if not yet stamped, and releases it.
func (s *pendingSpans[T]) record() {
	if s.chunk == nil {
		return
	}
	recordChunkSpans(s.name, s.chunk, time.Since(s.start))
	s.chunk = nil
}

// chunkEmitter is the operator-side batching layer: operators that transform
// tuples append their outputs here and the emitter re-chunks them, flushing
// when a chunk fills and — crucially — whenever the operator finishes an
// input chunk or is about to block waiting for input. No output tuple is
// ever held across a wait, so batching adds no latency beyond the source's
// linger. Buffers come from the per-type chunk pool; the downstream consumer
// recycles them.
type chunkEmitter[T any] struct {
	ctx   context.Context
	qz    *quiescer
	out   chan []T
	max   int
	stats *OpStats
	pool  *sync.Pool
	gate  *shedGate[T]
	knobs *OverloadKnobs
	buf   []T
	// beforeSend, if set, runs before every chunk leaves (see
	// pendingSpans).
	beforeSend func()
}

func newChunkEmitter[T any](ctx context.Context, qz *quiescer, out chan []T, max int, stats *OpStats) *chunkEmitter[T] {
	if max < 1 {
		max = 1
	}
	_, knobs := stats.shedSetup()
	return &chunkEmitter[T]{
		ctx: ctx, qz: qz, out: out, max: max, stats: stats,
		pool: chunkPoolFor[T](),
		gate: newShedGate(out, stats), knobs: knobs,
	}
}

// emit appends v to the open chunk, sending it downstream once full. The
// produced-tuple counter advances here so operator metrics stay per-tuple;
// shed tuples are counted by the gate instead and never count as produced
// (the gate sees v already in the buffer — a shed truncates it back off).
// Dynamic batch boost applies only to operators batching already (max > 1),
// mirroring the chunker.
func (e *chunkEmitter[T]) emit(v T) error {
	max := e.max
	if max > 1 {
		max = e.knobs.boostedMax(max)
	}
	if e.buf == nil {
		e.buf = getChunk[T](e.pool, max)
	}
	e.buf = append(e.buf, v)
	i := len(e.buf) - 1
	if !e.gate.admit(&e.buf[i]) {
		var zero T
		e.buf[i] = zero
		e.buf = e.buf[:i]
		return nil
	}
	e.stats.addOut(1)
	if len(e.buf) >= max {
		return e.flush()
	}
	return nil
}

// flush sends the open chunk, if any. Operators call it after each input
// chunk and before every blocking receive. The send transfers chunk
// ownership downstream.
func (e *chunkEmitter[T]) flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	if e.beforeSend != nil {
		e.beforeSend()
	}
	chunk := e.buf
	e.buf = nil
	e.stats.observeBatch(len(chunk))
	return sendChunk(e.qz, e.ctx, e.out, chunk)
}
