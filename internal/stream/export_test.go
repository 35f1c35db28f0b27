package stream

import "time"

// Test seams for knobs the product keeps at their defaults.

// withQueryBatch sets the chunk size of every edge (1 sends one tuple per
// chunk).
func withQueryBatch(n int) QueryOption {
	return func(q *Query) { q.batchSize = n }
}

// withQueryLinger sets how long a source holds a partial chunk open (0
// flushes only on a full chunk or end-of-stream).
func withQueryLinger(d time.Duration) QueryOption {
	return func(q *Query) { q.linger = d }
}

// withBuffer overrides one operator's output channel capacity.
func withBuffer(n int) OpOption {
	return func(o *opOptions) { o.buffer = n }
}
