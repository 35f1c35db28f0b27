package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"strata/internal/testseed"
)

// runJoin executes a Join over the two inputs and returns "lval+rval" strings
// sorted lexicographically (join output order depends on interleaving).
func runJoin(t *testing.T, left, right []keyed, ws int64, pred func(l, r keyed) bool) []string {
	t.Helper()
	q := NewQuery("join")
	l := AddSource(q, "left", FromSlice(left))
	r := AddSource(q, "right", FromSlice(right))
	if pred == nil {
		pred = func(keyed, keyed) bool { return true }
	}
	joined := Join(q, "join", l, r, ws,
		func(v keyed) string { return v.key },
		func(v keyed) string { return v.key },
		func(lv, rv keyed) (string, bool) {
			if !pred(lv, rv) {
				return "", false
			}
			return fmt.Sprintf("%d+%d", lv.val, rv.val), true
		})
	var got []string
	AddSink(q, "sink", joined, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	sort.Strings(got)
	return got
}

func TestJoinSameKeyWithinWindow(t *testing.T) {
	left := []keyed{{10, "a", 1}, {20, "a", 2}}
	right := []keyed{{12, "a", 100}, {50, "a", 200}}
	got := runJoin(t, left, right, 5, nil)
	want := []string{"1+100"} // only |10-12| <= 5 matches
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestJoinKeyIsolation(t *testing.T) {
	left := []keyed{{10, "a", 1}, {10, "b", 2}}
	right := []keyed{{10, "a", 100}, {10, "c", 300}}
	got := runJoin(t, left, right, 5, nil)
	want := []string{"1+100"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestJoinPredicateRejects(t *testing.T) {
	left := []keyed{{10, "a", 1}, {11, "a", 3}}
	right := []keyed{{10, "a", 100}}
	got := runJoin(t, left, right, 5, func(l, r keyed) bool { return l.val%2 == 1 && l.val > 1 })
	want := []string{"3+100"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestJoinZeroWindowMatchesEqualTimestamps(t *testing.T) {
	// ws=0 means |τL-τR| ≤ 0, i.e. same-τ fusion (the paper's fuse without
	// WS/WA).
	left := []keyed{{10, "a", 1}, {20, "a", 2}}
	right := []keyed{{10, "a", 100}, {21, "a", 200}}
	got := runJoin(t, left, right, 0, nil)
	want := []string{"1+100"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestJoinCartesianWithinKeyAndWindow(t *testing.T) {
	left := []keyed{{10, "a", 1}, {11, "a", 2}}
	right := []keyed{{10, "a", 3}, {11, "a", 4}}
	got := runJoin(t, left, right, 5, nil)
	want := []string{"1+3", "1+4", "2+3", "2+4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestJoinEmptySides(t *testing.T) {
	if got := runJoin(t, nil, []keyed{{1, "a", 1}}, 5, nil); len(got) != 0 {
		t.Fatalf("join with empty left = %v, want none", got)
	}
	if got := runJoin(t, []keyed{{1, "a", 1}}, nil, 5, nil); len(got) != 0 {
		t.Fatalf("join with empty right = %v, want none", got)
	}
}

func TestJoinNegativeWindowRejected(t *testing.T) {
	q := NewQuery("badws")
	l := AddSource(q, "l", FromSlice([]keyed{}))
	r := AddSource(q, "r", FromSlice([]keyed{}))
	Join(q, "join", l, r, -1,
		func(v keyed) string { return v.key },
		func(v keyed) string { return v.key },
		func(lv, rv keyed) (string, bool) { return "", true })
	if err := q.Err(); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("Err() = %v, want ErrBadWindow", err)
	}
}

func TestJoinPurgeDoesNotLoseMatches(t *testing.T) {
	// Stream enough tuples through to trigger several purge sweeps, and
	// verify every expected in-window pair is still produced.
	const n = 5000
	left := make([]keyed, n)
	right := make([]keyed, n)
	for i := 0; i < n; i++ {
		left[i] = keyed{ts: int64(i * 2), key: "k", val: i}
		right[i] = keyed{ts: int64(i * 2), key: "k", val: i}
	}
	got := runJoin(t, left, right, 0, nil)
	if len(got) != n {
		t.Fatalf("join produced %d pairs, want %d", len(got), n)
	}
}

// TestJoinPropertyMatchesReference compares the streaming join against a
// brute-force nested-loop reference over random ordered inputs.
func TestJoinPropertyMatchesReference(t *testing.T) {
	prop := func(seed int64, nL, nR uint8, wsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := int64(wsRaw % 16)
		keys := []string{"a", "b"}
		gen := func(n int) []keyed {
			out := make([]keyed, n)
			ts := int64(0)
			for i := range out {
				ts += rng.Int63n(4)
				out[i] = keyed{ts: ts, key: keys[rng.Intn(len(keys))], val: i}
			}
			return out
		}
		left, right := gen(int(nL%40)), gen(int(nR%40))

		ref := []string{}
		for _, l := range left {
			for _, r := range right {
				if l.key == r.key && absDiff(l.ts, r.ts) <= ws {
					ref = append(ref, fmt.Sprintf("%d+%d", l.val, r.val))
				}
			}
		}
		sort.Strings(ref)
		got := runJoin(t, left, right, ws, nil)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Logf("got %v want %v", got, ref)
			return false
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// TestJoinPurgesOnHorizonAdvance feeds 100 same-τ layers to both sides of a
// ws=0 join, one key per layer and no heartbeats, then checkpoints the parked
// query and counts the buffered keys. A layer can never match again once the
// other side has moved past it, so each buffer holds at most the newest
// layer — however the two sources interleave.
func TestJoinPurgesOnHorizonAdvance(t *testing.T) {
	const layers = 100
	items := make([]keyed, layers)
	for i := range items {
		items[i] = keyed{ts: int64(i), key: fmt.Sprintf("layer%d", i), val: i}
	}
	q := NewQuery("horizon")
	q.EnableSnapshots()
	fedL, fedR := make(chan struct{}), make(chan struct{})
	l := AddPositionedSource(q, "left", 0, feedFirst(items, layers, fedL))
	r := AddPositionedSource(q, "right", 0, feedFirst(items, layers, fedR))
	key := func(v keyed) string { return v.key }
	var got []string
	AddSink(q, "sink", Join(q, "join", l, r, 0, key, key,
		func(a, b keyed) (string, bool) { return fmt.Sprintf("%d+%d", a.val, b.val), true }),
		ToSlice(&got))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- q.Run(ctx) }()
	<-fedL
	<-fedR
	snap, err := q.Checkpoint(context.Background(), nil)
	if err != nil {
		t.Fatalf("Checkpoint() error = %v", err)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() error = %v", err)
	}
	var js joinSnap[keyed, keyed, string]
	if err := gobDecode(snap.Ops["join"], &js); err != nil {
		t.Fatal(err)
	}
	if len(js.L) > 1 || len(js.R) > 1 {
		t.Fatalf("join buffers hold %d left and %d right keys after %d layers, want at most 1 each",
			len(js.L), len(js.R), layers)
	}
	if len(got) != layers {
		t.Fatalf("join produced %d pairs, want %d", len(got), layers)
	}
}
