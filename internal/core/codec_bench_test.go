package core

import (
	"slices"
	"testing"
	"time"

	"strata/internal/otimage"
	"strata/internal/pubsub"
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
// tuple's strings and KV map, so it cannot be allocation-free, but the
// image's pixels stay in the frame; alloc_budget.json pins cell's
// allocation count and image2000's bytes (≤ 64 KiB, far below the 8 MB
// frame) so the codec cannot silently regress.
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

// BenchmarkReceiveDecode8MiB is the worker's receive path for one layer: a
// pubsub client receives an 8 MiB image tuple from a broker over TCP and
// DecodeTuple decodes it. The client's frame is the one frame-sized buffer
// per op; alloc_budget.json pins B/op at ≤ 1.1× of it, which a decoder that
// copies the pixels out of the frame (2×) fails.
func BenchmarkReceiveDecode8MiB(b *testing.B) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	srv, err := pubsub.Serve(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	subC, err := pubsub.DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer subC.Close()
	sub, err := subC.Subscribe("img", pubsub.WithSubBuffer(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	pubC, err := pubsub.DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pubC.Close()

	im := otimage.New(2048, 2048, 0.125) // 8 MiB of pixels
	for i := range im.Pix {
		im.Pix[i] = uint16(i)
	}
	data, err := EncodeTuple(imageTuple("bench", im))
	if err != nil {
		b.Fatal(err)
	}
	// One round trip before the timer gives the broker the relay buffer it
	// then reuses, so B/op is the steady state.
	receive := func() *otimage.Image {
		if err := pubC.Publish("img", data); err != nil {
			b.Fatal(err)
		}
		t, err := DecodeTuple((<-sub.C).Data)
		if err != nil {
			b.Fatal(err)
		}
		got, _ := t.GetImage("ot")
		return got
	}
	if got := receive(); !slices.Equal(got.Pix, im.Pix) {
		b.Fatal("received image differs from the one published")
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		receive()
	}
}
