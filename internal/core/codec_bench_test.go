package core

import (
	"testing"
	"time"

	"strata/internal/otimage"
)

// codecBenchTuple is a representative hot-path tuple: the per-cell event the
// image plane ships at ~10⁶/s, carrying its statistics inline.
func codecBenchTuple() EventTuple {
	return EventTuple{
		TS:       time.UnixMicro(1_000_000),
		Job:      "bench",
		Layer:    42,
		Specimen: "spec01",
		Portion:  "c3-7",
		Cell: otimage.Cell{
			Col: 3, Row: 7,
			Region: otimage.Rect{X0: 30, Y0: 70, X1: 40, Y1: 80},
			Mean:   812.5, Min: 11, Max: 6021,
		},
	}
}

// BenchmarkEncodeTupleAppend measures the codec-reuse path connectors run:
// encoding into a recycled buffer. Steady state is allocation-free —
// alloc_budget.json pins it at 0 allocs/op.
func BenchmarkEncodeTupleAppend(b *testing.B) {
	t := codecBenchTuple()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EncodeTupleAppend(buf[:0], t)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// frameTuple is the raw connector's payload at paper resolution: one
// 2000×2000 OT frame (8 MB of pixels).
func frameTuple() EventTuple {
	im := otimage.New(2000, 2000, 0.125)
	for i := range im.Pix {
		im.Pix[i] = uint16(i)
	}
	return imageTuple("bench", im)
}

// BenchmarkEncodeTuple measures the allocating encode the connector taps
// use. alloc_budget.json pins image2000 at one frame-sized buffer (B/op ≤
// 1.1× the frame): the pixels move in one bulk copy into a buffer sized up
// front.
func BenchmarkEncodeTuple(b *testing.B) {
	b.Run("image2000", func(b *testing.B) {
		t := frameTuple()
		b.SetBytes(8_000_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeTuple(t); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeTuple measures the receive side. Decoding materializes the
// tuple's strings and copies the image out of the frame (the decoded tuple
// must own its data), so it cannot be allocation-free; alloc_budget.json
// pins cell's allocation count and image2000's bytes (≤ 1.1× the frame) so
// the codec cannot silently regress.
func BenchmarkDecodeTuple(b *testing.B) {
	for _, c := range []struct {
		name  string
		tuple EventTuple
	}{
		{"cell", codecBenchTuple()},
		{"image2000", frameTuple()},
	} {
		b.Run(c.name, func(b *testing.B) {
			data, err := EncodeTuple(c.tuple)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeTuple(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
