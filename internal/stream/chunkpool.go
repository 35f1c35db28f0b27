package stream

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Chunk recycling. Edges carry chunks ([]T); before this pool every chunk
// was a fresh allocation at the producer and garbage at the consumer —
// roughly one allocation per DefaultBatchSize tuples per operator, plus the
// append-doubling ladder inside the emitters. The pool closes that loop:
// emitters take their buffers from a per-tuple-type pool and the operator
// that finishes a chunk returns it.
//
// Ownership rules (DESIGN.md §13 "Memory model"):
//
//   - A chunk has exactly one owner at a time. Sending a chunk on an edge
//     transfers ownership to the receiving operator.
//   - The owner that fully consumes a chunk — and only that owner — may
//     recycle it (flatMap/process/aggregate/join after the tuple loop,
//     a sink after traces are finished, shuffle after partitioning).
//   - Fanout duplicates ownership: the same chunk is sent to every branch,
//     so none of them may recycle it. Fanout (and anything downstream of a
//     Merge fed by a Fanout branch) marks its output streams shared; the
//     consumer of a shared stream leaves chunks to the garbage collector.
//   - Chunks are cleared before they are pooled, so a recycled chunk never
//     keeps tuple payloads (KV maps, images, traces) alive.
//
// Pools are keyed by the concrete tuple type via a lazily-populated global
// registry; operators resolve their pool once at construction time, so the
// hot path never touches the registry.

var chunkPools sync.Map // reflect.Type -> *sync.Pool

// chunkPoolFor returns the process-wide chunk pool for tuple type T.
func chunkPoolFor[T any]() *sync.Pool {
	key := reflect.TypeOf((*T)(nil))
	if p, ok := chunkPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := chunkPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// getChunk takes an empty chunk with at least the requested capacity from
// the pool, falling back to a fresh allocation when the pool is empty or
// holds only smaller buffers (a dropped undersized buffer is collected as
// usual).
func getChunk[T any](pool *sync.Pool, capacity int) []T {
	if pool != nil {
		if v := pool.Get(); v != nil {
			if s, ok := v.([]T); ok && cap(s) >= capacity {
				if chunkPoolDebug.Load() {
					noteChunkOut(s)
				}
				return s[:0]
			}
		}
	}
	return make([]T, 0, capacity)
}

// recycleChunk clears chunk and returns it to the pool. Callers must own the
// chunk exclusively (see the ownership rules above); the clear both prevents
// payload retention and makes a use-after-recycle read deterministic (zero
// values) instead of aliasing a neighbour's data.
func recycleChunk[T any](pool *sync.Pool, chunk []T) {
	if pool == nil || cap(chunk) == 0 {
		return
	}
	if chunkPoolDebug.Load() {
		noteChunkIn(chunk)
	}
	clear(chunk[:cap(chunk)])
	pool.Put(chunk[:0])
}

// Double-put detector. Off by default (the hot path pays one atomic load);
// tests enable it to assert that no operator recycles a chunk it no longer
// owns. Tracking is by backing-array address, which is exactly the identity
// that matters for aliasing bugs.
var (
	chunkPoolDebug atomic.Bool
	chunkDebugMu   sync.Mutex
	chunkDebugIn   map[unsafe.Pointer]bool // backing array -> currently pooled
)

// SetChunkPoolDebug toggles the chunk pool's double-put detector. With it
// enabled, recycling the same backing array twice without an intervening get
// panics. Intended for tests; not safe to toggle while queries run.
func SetChunkPoolDebug(on bool) {
	chunkDebugMu.Lock()
	defer chunkDebugMu.Unlock()
	chunkPoolDebug.Store(on)
	if on {
		chunkDebugIn = make(map[unsafe.Pointer]bool)
	} else {
		chunkDebugIn = nil
	}
}

func noteChunkIn[T any](chunk []T) {
	p := unsafe.Pointer(unsafe.SliceData(chunk[:cap(chunk)]))
	chunkDebugMu.Lock()
	defer chunkDebugMu.Unlock()
	if chunkDebugIn == nil {
		return
	}
	if chunkDebugIn[p] {
		panic(fmt.Sprintf("stream: chunk %p recycled twice without an intervening get", p))
	}
	chunkDebugIn[p] = true
}

func noteChunkOut[T any](chunk []T) {
	p := unsafe.Pointer(unsafe.SliceData(chunk[:cap(chunk)]))
	chunkDebugMu.Lock()
	defer chunkDebugMu.Unlock()
	if chunkDebugIn != nil {
		delete(chunkDebugIn, p)
	}
}
