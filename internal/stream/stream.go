package stream

// DefaultBufferSize is the channel capacity used for streams unless
// overridden with WithQueryBuffer. Bounded channels are the engine's
// back-pressure mechanism: a slow consumer eventually blocks its producers.
// Since the micro-batching refactor the unit of the channel is a chunk
// ([]T), so the worst-case number of buffered tuples on one edge is
// DefaultBufferSize × the operator's batch size.
const DefaultBufferSize = 256

// Stream is a typed, single-producer/single-consumer edge of the query DAG.
// Streams are created by builder functions (AddSource, Map, ...) and consumed
// by exactly one downstream operator; use Fanout to duplicate a stream for
// several consumers.
//
// The wire format of an edge is a chunk of tuples ([]T), not a single tuple:
// producers coalesce up to DefaultBatchSize tuples before paying the
// channel synchronization, and consumers loop over the chunk. Chunks are
// immutable once sent — operators that reshape data allocate fresh slices.
type Stream[T any] struct {
	name string
	q    *Query
	ch   chan []T
	// consumed marks that a downstream operator already reads this stream.
	consumed bool
	producer string
	// shared marks a stream whose chunks alias storage also visible to
	// another consumer (Fanout branches, and Merges fed by one). The
	// consumer of a shared stream must not recycle chunks into the pool;
	// everything else about chunk handling is unchanged. See chunkpool.go
	// for the ownership rules.
	shared bool
}

// Name returns the stream's name (the producing operator's name).
func (s *Stream[T]) Name() string { return s.name }

// claim marks the stream as consumed by operator op, recording a build error
// on double consumption or cross-query use.
func (s *Stream[T]) claim(q *Query, op string) {
	if s.q != q {
		q.recordErr(ErrCrossQuery)
		return
	}
	if s.consumed {
		q.recordErr(ErrStreamConsumed)
		return
	}
	s.consumed = true
	q.streamConsumed(s.name, op)
}

// newStream registers a stream produced by operator producer on query q.
func newStream[T any](q *Query, producer string, buf int) *Stream[T] {
	if buf <= 0 {
		buf = q.bufferSize
	}
	s := &Stream[T]{name: producer, q: q, ch: make(chan []T, buf), producer: producer}
	q.streamCreated(producer)
	// Register the edge with the quiescer: the checkpoint stability scan
	// needs to observe every channel in the DAG empty.
	q.qz.addEdge(func() int { return len(s.ch) })
	return s
}

// opOptions holds per-operator tuning knobs. Batch size and linger are
// query-wide.
type opOptions struct {
	// buffer overrides the output channel capacity; non-positive values
	// fall back to the query default.
	buffer int
	// shedGate records WithShedGate: the operator gets a gate the dynamic
	// overload knobs can engage.
	shedGate bool
}

// OpOption customizes a single operator created by a builder function.
type OpOption func(*opOptions)

func applyOpts(opts []OpOption) opOptions {
	var o opOptions
	for _, f := range opts {
		f(&o)
	}
	return o
}
