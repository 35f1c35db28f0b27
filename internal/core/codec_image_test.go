package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"strata/internal/otimage"
	"strata/internal/stream"
)

// imageTuple is a raw-connector tuple: one layer's OT frame and a little
// metadata, the shape the 8 MB path carries.
func imageTuple(job string, im any) EventTuple {
	return EventTuple{
		TS: time.UnixMicro(1_000_000), Job: job, Layer: 7,
		Specimen: DefaultSpecimen, Portion: DefaultPortion,
		KV: map[string]any{"ot": im},
	}
}

// TestCodecImageAtAnyFrameOffset: the encoder puts an image at an even
// offset from the tuple's start whatever length the strings before it
// have, and a tuple round-trips from any byte offset of a frame. Jobs of
// consecutive lengths cover both parities of the strings, offsets 0–3 both
// parities of the tuple's start. Strided views go the same way.
func TestCodecImageAtAnyFrameOffset(t *testing.T) {
	im := otimage.New(7, 5, 0.125)
	for i := range im.Pix {
		im.Pix[i] = uint16(i*2503 + 17)
	}
	view, err := im.ViewOf(otimage.Rect{X0: 2, Y0: 1, X1: 5, Y1: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"j", "jo", "job"} {
		for name, tc := range map[string]struct {
			val  any
			want *otimage.Image
		}{
			"image": {im, im},
			"view":  {view, view.Materialize()},
		} {
			data, err := EncodeTuple(imageTuple(job, tc.val))
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(data, tc.want.Marshal())
			if at < 0 || at%2 != 0 {
				t.Fatalf("%s/%s: image at offset %d of the tuple, want an even one", job, name, at)
			}
			frame := make([]byte, 3+len(data))
			for off := 0; off <= 3; off++ {
				copy(frame[off:], data)
				out, err := DecodeTuple(frame[off : off+len(data)])
				if err != nil {
					t.Fatal(err)
				}
				got, ok := out.GetImage("ot")
				if !ok {
					t.Fatalf("%s/%s: image lost", job, name)
				}
				if got.Width != tc.want.Width || got.Height != tc.want.Height || !slices.Equal(got.Pix, tc.want.Pix) {
					t.Fatalf("%s/%s: tuple at frame offset %d did not round-trip", job, name, off)
				}
			}
		}
	}
}

// pixelsIn reports whether px lies inside b's memory.
func pixelsIn(px []uint16, b []byte) bool {
	if len(px) == 0 || len(b) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(px)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(2*len(px)) <= lo+uintptr(len(b))
}

// TestDecodeTupleSharesPixels pins DecodeTuple's contract: a decoded image's
// pixels share the frame they were decoded from, and everything else the
// tuple holds is its own. Job names of every length parity, up to three
// extra KV entries before or after the image and 50 map orders each (the
// encoder walks the map in Go's random order) cover every offset the
// strings can push the image to; the encoder must keep the pixels on an
// even address for all of them. A tuple copied to an odd offset takes the
// decoder's copy path and still decodes equal.
func TestDecodeTupleSharesPixels(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("pixels are shared on little-endian hosts only")
	}
	im := sampleImage()
	view, err := im.ViewOf(otimage.Rect{X0: 1, Y0: 1, X1: 6, Y1: 4})
	if err != nil {
		t.Fatal(err)
	}
	extras := []struct {
		key string
		val any
	}{
		{"note", "hello"},
		{"blob", []byte{1, 2, 3, 4, 5}},
		{"c", sampleCell()},
	}
	for _, src := range []struct {
		name string
		val  any
		want *otimage.Image
	}{
		{"image", im, im},
		{"view", view, view.Materialize()},
	} {
		for _, job := range []string{"j", "jo", "job", "jobs"} {
			for nx := 0; nx <= len(extras); nx++ {
				in := imageTuple(job, src.val)
				for _, x := range extras[:nx] {
					in.KV[x.key] = x.val
				}
				for order := 0; order < 50; order++ {
					data, err := EncodeTuple(in)
					if err != nil {
						t.Fatal(err)
					}
					odd := make([]byte, 1+len(data))
					copy(odd[1:], data)
					out, err := DecodeTuple(data)
					if err != nil {
						t.Fatal(err)
					}
					got, _ := out.GetImage("ot")
					if !pixelsIn(got.Pix, data) || !slices.Equal(got.Pix, src.want.Pix) {
						t.Fatalf("%s/%s/%d extras: decoded pixels do not share the frame or differ (shared=%v)",
							src.name, job, nx, pixelsIn(got.Pix, data))
					}
					for i := range data {
						data[i] = 0xFF
					}
					if out.Job != job || out.Layer != 7 || out.Specimen != DefaultSpecimen {
						t.Fatalf("%s/%s: decoded header fields alias the frame: %+v", src.name, job, out)
					}
					for _, x := range extras[:nx] {
						if fmt.Sprint(out.KV[x.key]) != fmt.Sprint(x.val) {
							t.Fatalf("%s/%s: %s = %v after the frame was overwritten, want %v", src.name, job, x.key, out.KV[x.key], x.val)
						}
					}
					back, err := DecodeTuple(odd[1:])
					if err != nil {
						t.Fatal(err)
					}
					got, _ = back.GetImage("ot")
					if pixelsIn(got.Pix, odd) || !slices.Equal(got.Pix, src.want.Pix) {
						t.Fatalf("%s/%s/%d extras: tuple at an odd offset did not decode to a copy", src.name, job, nx)
					}
				}
			}
		}
	}
}

// TestEncodeTupleOneAllocation: an image tuple is encoded into one buffer
// sized for it, not grown into.
func TestEncodeTupleOneAllocation(t *testing.T) {
	tup := imageTuple("job", otimage.New(64, 64, 0.125))
	tup.Cell = codecBenchTuple().Cell
	data, err := EncodeTuple(tup)
	if err != nil {
		t.Fatal(err)
	}
	if hint := encodedSizeHint(tup); hint < len(data) || hint > len(data)+128 {
		t.Fatalf("size hint %d for a %d-byte frame", hint, len(data))
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = EncodeTuple(tup) }); n != 1 {
		t.Fatalf("EncodeTuple made %v allocations, want 1", n)
	}
}

// FuzzDecodeTuple: arbitrary bytes either fail to decode or decode to a
// tuple that encodes and decodes again. The seeds are the damaged shapes a
// frame from a socket or a torn log record can take.
func FuzzDecodeTuple(f *testing.F) {
	withImage, err := EncodeTuple(imageTuple("job", sampleImage()))
	if err != nil {
		f.Fatal(err)
	}
	cellTup := codecBenchTuple()
	withCell, err := EncodeTuple(cellTup)
	if err != nil {
		f.Fatal(err)
	}
	imgAt := bytes.Index(withImage, sampleImage().Marshal())
	patched := func(off int, v uint32) []byte {
		b := slices.Clone(withImage)
		binary.LittleEndian.PutUint32(b[imgAt+off:], v)
		return b
	}
	hugeCount := slices.Clone(withCell[:len(withCell)-1-encodedCellSize-1]) // up to, not including, the KV count
	hugeCount = binary.AppendUvarint(hugeCount, 1<<40)
	cellTrailer := withCell[len(withCell)-1-encodedCellSize:]

	f.Add(withImage)
	f.Add(withCell)
	f.Add([]byte{})
	f.Add(withImage[:3])                                   // truncated magic
	f.Add(withImage[:30])                                  // truncated header
	f.Add(withImage[:imgAt+10])                            // truncated inside the image header
	f.Add(withImage[:len(withImage)-1])                    // image a byte short
	f.Add(patched(4, 9))                                   // image size mismatch: wrong width
	f.Add(patched(4, 0))                                   // implausible dims
	f.Add(patched(0, 0xdeadbeef))                          // bad image magic
	f.Add(hugeCount)                                       // KV count far beyond the frame
	f.Add(withCell[:len(withCell)-5])                      // cell trailer cut short
	f.Add(append(slices.Clone(withCell), traceTrailerTag)) // trace trailer tag with no body
	f.Add(append(slices.Clone(withCell), cellTrailer...))  // the same trailer twice
	f.Add(append(slices.Clone(withImage), 0xEE, 1, 2, 3))  // unknown trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, err := DecodeTuple(data)
		if err != nil {
			return
		}
		again, err := EncodeTuple(tup)
		if err != nil {
			t.Fatalf("decoded tuple does not encode: %v", err)
		}
		back, err := DecodeTuple(again)
		if err != nil {
			t.Fatalf("re-encoded tuple does not decode: %v", err)
		}
		if back.Job != tup.Job || back.Layer != tup.Layer || len(back.KV) != len(tup.KV) {
			t.Fatalf("re-decode changed the tuple: %+v vs %+v", back, tup)
		}
		// A cell with an empty region means "no cell" and is not encoded.
		if !tup.Cell.Region.Empty() && back.Cell.Region != tup.Cell.Region {
			t.Fatalf("re-decode changed the cell: %+v vs %+v", back.Cell, tup.Cell)
		}
	})
}

// TestGobDecodeCopies: GobDecode leaves nothing pointing into its input,
// the contract gob.GobDecoder shares with encoding.BinaryUnmarshaler. A
// decoded image would otherwise share the bytes gob owns.
func TestGobDecodeCopies(t *testing.T) {
	im := sampleImage()
	data, err := imageTuple("job", im).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var out EventTuple
	if err := out.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	clear(data)
	if got, _ := out.GetImage("ot"); !slices.Equal(got.Pix, im.Pix) {
		t.Fatal("GobDecode kept the pixels in its input")
	}
}

// TestGobImageTuples: image tuples come out of a gob stream and out of a
// restored join buffer intact.
func TestGobImageTuples(t *testing.T) {
	a, b := sampleImage(), sampleImage()
	for i := range b.Pix {
		b.Pix[i] = ^b.Pix[i]
	}
	var gobStream bytes.Buffer
	enc := gob.NewEncoder(&gobStream)
	for _, im := range []*otimage.Image{a, b} {
		if err := enc.Encode(imageTuple("job", im)); err != nil {
			t.Fatal(err)
		}
	}
	dec := gob.NewDecoder(&gobStream)
	var outA, outB EventTuple
	if err := dec.Decode(&outA); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&outB); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		out  EventTuple
		want *otimage.Image
	}{{outA, a}, {outB, b}} {
		if got, _ := c.out.GetImage("ot"); !slices.Equal(got.Pix, c.want.Pix) {
			t.Fatal("an image tuple from the gob stream differs from the one sent")
		}
	}

	// A join buffers the image tuple on its left side; the checkpoint's blob
	// is scribbled over once restored, as a reused read buffer would be.
	build := func(q *stream.Query, left, right stream.PositionedSourceFunc[EventTuple]) *[][2]EventTuple {
		ls := stream.AddPositionedSource(q, "left", 0, left)
		rs := stream.AddPositionedSource(q, "right", 0, right)
		joined := stream.Join(q, "join", ls, rs, 0,
			func(t EventTuple) string { return t.Job },
			func(t EventTuple) string { return t.Job },
			func(l, r EventTuple) ([2]EventTuple, bool) { return [2]EventTuple{l, r}, true })
		got := new([][2]EventTuple)
		stream.AddSink(q, "sink", joined, stream.ToSlice(got))
		return got
	}
	emitting := func(ts ...EventTuple) stream.PositionedSourceFunc[EventTuple] {
		return func(ctx context.Context, emit stream.PosEmit[EventTuple]) error {
			for i, t := range ts {
				if err := emit(uint64(i), t); err != nil {
					return err
				}
			}
			return nil
		}
	}
	parked := func(fed chan struct{}, ts ...EventTuple) stream.PositionedSourceFunc[EventTuple] {
		return func(ctx context.Context, emit stream.PosEmit[EventTuple]) error {
			if err := emitting(ts...)(ctx, emit); err != nil {
				return err
			}
			close(fed)
			<-ctx.Done()
			return nil
		}
	}
	qa := stream.NewQuery("a")
	qa.EnableSnapshots()
	fedL, fedR := make(chan struct{}), make(chan struct{})
	build(qa, parked(fedL, imageTuple("job", a)), parked(fedR))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- qa.Run(ctx) }()
	<-fedL
	<-fedR
	snap, err := qa.Checkpoint(context.Background(), nil)
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	qb := stream.NewQuery("b")
	got := build(qb, emitting(), emitting(imageTuple("job", b)))
	if err := qb.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	for _, blob := range snap.Ops {
		for i := range blob {
			blob[i] = 0xFF
		}
	}
	if err := qb.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("restored join emitted %d pairs, want 1", len(*got))
	}
	if im, _ := (*got)[0][0].GetImage("ot"); !slices.Equal(im.Pix, a.Pix) {
		t.Fatal("the image restored into the join buffer differs from the one checkpointed")
	}
}
