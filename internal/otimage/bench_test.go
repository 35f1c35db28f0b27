package otimage

import (
	"bytes"
	"testing"
)

func benchImage(edge int) *Image {
	im := New(edge, edge, 0.125)
	for i := range im.Pix {
		im.Pix[i] = uint16(i * 2654435761)
	}
	return im
}

func BenchmarkSplitCells(b *testing.B) {
	im := benchImage(2000) // full paper resolution
	region := Rect{X0: 0, Y0: 0, X1: 2000, Y1: 2000}
	for _, edge := range []int{40, 20, 10, 2} {
		b.Run(sizeName(edge), func(b *testing.B) {
			b.ReportAllocs()
			cells := 0
			for i := 0; i < b.N; i++ {
				cs, err := im.SplitCells(region, edge)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(cs)
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkAppendSplitCells is the hot-path variant the pipeline runs: a
// zero-copy view sliced into a reused scratch buffer. Steady state is
// allocation-free — alloc_budget.json pins that at 0 allocs/op.
func BenchmarkAppendSplitCells(b *testing.B) {
	im := benchImage(2000)
	v := im.FullView()
	scratch := make([]Cell, 0, 1)
	for _, edge := range []int{20, 10} {
		b.Run(sizeName(edge), func(b *testing.B) {
			var err error
			scratch, err = v.AppendSplitCells(scratch[:0], edge) // warm the scratch
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch, err = v.AppendSplitCells(scratch[:0], edge)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(scratch)*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

func sizeName(edge int) string {
	return string(rune('0'+edge/10%10)) + string(rune('0'+edge%10)) + "px"
}

func BenchmarkMarshal(b *testing.B) {
	im := benchImage(2000)
	b.SetBytes(int64(im.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = im.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data := benchImage(2000).Marshal()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPGMWrite(b *testing.B) {
	im := benchImage(2000)
	b.SetBytes(int64(im.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := im.WritePGM(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubImage(b *testing.B) {
	im := benchImage(2000)
	r := Rect{X0: 100, Y0: 100, X1: 300, Y1: 500} // one specimen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.SubImage(r); err != nil {
			b.Fatal(err)
		}
	}
}
