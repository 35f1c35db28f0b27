package stream

import (
	"fmt"
	"testing"
)

func TestProcessOnEndFlush(t *testing.T) {
	q := NewQuery("process")
	src := AddSource(q, "src", FromSlice(ints(5)))
	sum := 0
	out := Process(q, "acc", src,
		func(v At[int], emit Emit[int]) error {
			sum += v.Val
			return nil
		},
		func(emit Emit[int]) error { return emit(sum) }, nil)
	var got []int
	AddSink(q, "sink", out, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[10]" {
		t.Fatalf("got %v, want [10]", got)
	}
}

func TestProcessNilOnEnd(t *testing.T) {
	q := NewQuery("process2")
	src := AddSource(q, "src", FromSlice(ints(3)))
	out := Process(q, "id", src,
		func(v At[int], emit Emit[At[int]]) error { return emit(v) }, nil, nil)
	var got []At[int]
	AddSink(q, "sink", out, ToSlice(&got))
	if err := runQuery(t, q); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
}
