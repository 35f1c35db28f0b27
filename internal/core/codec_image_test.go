package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"strata/internal/otimage"
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

// TestCodecImageAtAnyFrameOffset: the image payload sits wherever the
// tuple's strings put it, so jobs of consecutive lengths cover both an even
// and an odd byte offset — the pixel section is not uint16-aligned in the
// frame, and the bulk copy must not care. Strided views go the same way.
func TestCodecImageAtAnyFrameOffset(t *testing.T) {
	im := otimage.New(7, 5, 0.125)
	for i := range im.Pix {
		im.Pix[i] = uint16(i*2503 + 17)
	}
	view, err := im.ViewOf(otimage.Rect{X0: 2, Y0: 1, X1: 5, Y1: 4})
	if err != nil {
		t.Fatal(err)
	}
	offsets := map[int]bool{}
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
			payload := tc.want.Marshal()
			at := bytes.Index(data, payload)
			if at < 0 {
				t.Fatalf("%s/%s: frame does not contain the image's standalone encoding", job, name)
			}
			offsets[at%2] = true
			out, err := DecodeTuple(data)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := out.GetImage("ot")
			if !ok {
				t.Fatalf("%s/%s: image lost", job, name)
			}
			if got.Width != tc.want.Width || got.Height != tc.want.Height || !slices.Equal(got.Pix, tc.want.Pix) {
				t.Fatalf("%s/%s: image at frame offset %d did not round-trip", job, name, at)
			}
		}
	}
	if !offsets[0] || !offsets[1] {
		t.Fatalf("test did not cover both offset parities: %v", offsets)
	}
}

// TestDecodeTupleCopies: the decoded tuple owns everything it references.
// seglog's read scratch, ReconnectConn's pending ring and EncodeTupleAppend
// callers all reuse the buffer a tuple was decoded from.
func TestDecodeTupleCopies(t *testing.T) {
	im := sampleImage()
	in := imageTuple("job", im)
	in.KV["blob"] = []byte{1, 2, 3, 4}
	in.KV["note"] = "hello"
	data, err := EncodeTuple(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTuple(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	got, _ := out.GetImage("ot")
	if !slices.Equal(got.Pix, im.Pix) {
		t.Fatal("decoded image aliases the frame buffer")
	}
	if b, _ := out.KV["blob"].([]byte); !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatal("decoded bytes alias the frame buffer")
	}
	if s, _ := out.GetString("note"); s != "hello" || out.Job != "job" {
		t.Fatal("decoded strings alias the frame buffer")
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
