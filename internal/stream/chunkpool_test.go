package stream

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestChunkPoolRoundTrip(t *testing.T) {
	pool := chunkPoolFor[int]()
	c := getChunk[int](pool, 8)
	c = append(c, 1, 2, 3)
	recycleChunk(pool, c)
	got := getChunk[int](pool, 8)
	if len(got) != 0 {
		t.Fatalf("recycled chunk came back with len %d", len(got))
	}
	// recycleChunk documents that payloads are cleared so pooled chunks
	// don't keep tuple data alive.
	full := got[:cap(got)]
	for i, v := range full {
		if v != 0 {
			t.Fatalf("pooled chunk kept payload at %d: %d", i, v)
		}
	}
}

func TestChunkPoolDoublePutPanics(t *testing.T) {
	SetChunkPoolDebug(true)
	defer SetChunkPoolDebug(false)
	pool := chunkPoolFor[uint32]()
	c := getChunk[uint32](pool, 4)
	recycleChunk(pool, c)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double recycle did not panic with the detector on")
		}
		if !strings.Contains(fmt.Sprint(r), "recycled twice") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	recycleChunk(pool, c)
}

// TestChunkOwnershipUnderQuery runs a query exercising every recycling
// owner — parallel flat-map branches, a fanout (shared streams, no
// recycling), a merge, and sinks — with the double-put detector armed.
// Under -race this also catches a recycle-after-send: clearing a chunk the
// consumer still reads is a data race by construction.
func TestChunkOwnershipUnderQuery(t *testing.T) {
	SetChunkPoolDebug(true)
	defer SetChunkPoolDebug(false)
	const tuples = 20000

	q := NewQuery("pool-correctness", WithQueryBuffer(64))
	src := AddSource(q, "src", func(ctx context.Context, emit Emit[At[int]]) error {
		for i := 0; i < tuples; i++ {
			if err := emit(At[int]{TS: int64(i), Val: i}); err != nil {
				return err
			}
		}
		return nil
	})
	work := shuffleFlatMapMerge(q, "work", src, 4,
		func(v At[int]) uint64 { return uint64(v.Val) },
		func(v At[int], emit Emit[At[int]]) error { return emit(v) })
	branches := Fanout(q, "fan", work, 2)
	var counts [2]int
	for i, br := range branches {
		i := i
		mapped := Map(q, fmt.Sprintf("id%d", i), br, func(v At[int]) (At[int], error) {
			return v, nil
		})
		AddSink(q, fmt.Sprintf("sink%d", i), mapped, func(v At[int]) error {
			counts[i]++
			return nil
		})
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counts[0] != tuples || counts[1] != tuples {
		t.Fatalf("fanout delivered %v, want %d each", counts, tuples)
	}
}
