package otimage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceMarshal is the codec as specified, pixel by pixel through the
// portable helper: what the bulk path must produce byte for byte.
func referenceMarshal(w, h int, mmpp float64, rows func(y int) []uint16) []byte {
	out := binary.LittleEndian.AppendUint32(nil, codecMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(w))
	out = binary.LittleEndian.AppendUint32(out, uint32(h))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(mmpp))
	for y := 0; y < h; y++ {
		out = appendPixelsPortable(out, rows(y))
	}
	return out
}

// TestCodecBulkMatchesPortable compares the bulk pixel path with the
// portable per-pixel one, byte for byte and pixel for pixel, over the shapes
// where a bulk copy can go wrong: single pixels, odd widths, strided view
// windows, and encodings that start at an odd byte offset.
func TestCodecBulkMatchesPortable(t *testing.T) {
	const seed = 20221107
	rng := rand.New(rand.NewSource(seed))
	dims := [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {33, 17}, {101, 99}, {256, 4}}
	for _, d := range dims {
		w, h := d[0], d[1]
		im := randomImage(rng.Int63(), w, h)
		want := referenceMarshal(w, h, im.MMPerPixel, func(y int) []uint16 { return im.Pix[y*w : (y+1)*w] })

		if got := im.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d %dx%d: Image.Marshal differs from the portable encoding", seed, w, h)
		}
		if got := im.FullView().MarshalAppend(nil); !bytes.Equal(got, want) {
			t.Fatalf("seed %d %dx%d: full View.MarshalAppend differs from the portable encoding", seed, w, h)
		}
		// Appending after an odd-length prefix puts every pixel at an odd
		// byte offset of the destination.
		for _, prefix := range [][]byte{nil, {0xAA}, {1, 2, 3}} {
			got := im.MarshalAppend(slices.Clone(prefix))
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("seed %d %dx%d: MarshalAppend after %d-byte prefix is wrong", seed, w, h, len(prefix))
			}
			// ... and decoding from there reads from an odd source offset.
			back, err := Unmarshal(got[len(prefix):])
			if err != nil {
				t.Fatalf("seed %d %dx%d prefix %d: %v", seed, w, h, len(prefix), err)
			}
			if back.Width != w || back.Height != h || back.MMPerPixel != im.MMPerPixel || !slices.Equal(back.Pix, im.Pix) {
				t.Fatalf("seed %d %dx%d prefix %d: round trip lost pixels", seed, w, h, len(prefix))
			}
			portable := make([]uint16, w*h)
			readPixelsPortable(portable, got[len(prefix)+20:])
			if !slices.Equal(portable, back.Pix) {
				t.Fatalf("seed %d %dx%d prefix %d: bulk and portable decode disagree", seed, w, h, len(prefix))
			}
		}

		// Strided windows: every row of the window is a separate run of Pix.
		for i := 0; i < 8; i++ {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			r := Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(w-x0), Y1: y0 + 1 + rng.Intn(h-y0)}
			v, err := im.ViewOf(r)
			if err != nil {
				t.Fatal(err)
			}
			wantView := referenceMarshal(r.W(), r.H(), im.MMPerPixel, v.Row)
			got := v.MarshalAppend([]byte{0x55})
			if got[0] != 0x55 || !bytes.Equal(got[1:], wantView) {
				t.Fatalf("seed %d %dx%d view %v: MarshalAppend differs from the portable encoding", seed, w, h, r)
			}
			if len(wantView) != v.MarshalSize() {
				t.Fatalf("view %v: MarshalSize %d, encoded %d", r, v.MarshalSize(), len(wantView))
			}
			back, err := Unmarshal(got[1:])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back.Pix, v.Materialize().Pix) {
				t.Fatalf("seed %d %dx%d view %v: round trip differs from Materialize", seed, w, h, r)
			}
		}
	}
}

// TestUnmarshalCopies pins the decode contract the connectors rely on: the
// image owns its pixels, so the caller may overwrite the input afterwards.
func TestUnmarshalCopies(t *testing.T) {
	im := randomImage(1, 9, 5)
	data := im.Marshal()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !slices.Equal(back.Pix, im.Pix) {
		t.Fatal("decoded image aliases the input buffer")
	}
}

// TestUnmarshalShared: an encoding whose pixel section sits at an even
// address decodes in place on a little-endian host, one at an odd address
// is copied, and both decode to the source image.
func TestUnmarshalShared(t *testing.T) {
	im := randomImage(3, 9, 5)
	buf := make([]byte, 1+im.MarshalSize())
	for _, off := range []int{0, 1} {
		data := buf[off : off+im.MarshalSize()]
		im.MarshalAppend(data[:0])
		back, err := UnmarshalShared(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Width != im.Width || back.Height != im.Height || back.MMPerPixel != im.MMPerPixel || !slices.Equal(back.Pix, im.Pix) {
			t.Fatalf("offset %d: round trip differs", off)
		}
		shared := &pixelBytes(back.Pix)[0] == &data[20]
		if want := hostLittleEndian && off == 0; shared != want {
			t.Fatalf("offset %d: shared=%v, want %v", off, shared, want)
		}
		if cap(back.Pix) != len(back.Pix) {
			t.Fatalf("offset %d: Pix has spare capacity %d past the image", off, cap(back.Pix)-len(back.Pix))
		}
	}
}

// FuzzUnmarshal: arbitrary bytes either fail to decode or decode to an
// image that re-encodes to exactly the input. The seeds are the malformed
// shapes a frame from a socket or a torn log record can take.
func FuzzUnmarshal(f *testing.F) {
	valid := randomImage(2, 3, 2).Marshal()
	header := func(w, h uint32) []byte {
		b := slices.Clone(valid[:20])
		binary.LittleEndian.PutUint32(b[4:], w)
		binary.LittleEndian.PutUint32(b[8:], h)
		return b
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:11])                             // truncated header
	f.Add(valid[:len(valid)-1])                   // size mismatch: a byte short
	f.Add(append(slices.Clone(valid), 0))         // size mismatch: trailing byte
	f.Add(append(header(4, 4), valid[20:]...))    // header promises more pixels
	f.Add(header(0, 7))                           // implausible: zero width
	f.Add(header(1<<16+1, 1))                     // implausible: over the cap
	f.Add(header(math.MaxUint32, math.MaxUint32)) // implausible: overflows w*h
	f.Add(append([]byte("XXXX"), valid[4:]...))   // bad magic
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Unmarshal(data)
		if err != nil {
			return
		}
		if len(im.Pix) != im.Width*im.Height {
			t.Fatalf("decoded %dx%d with %d pixels", im.Width, im.Height, len(im.Pix))
		}
		if !bytes.Equal(im.Marshal(), data) {
			t.Fatal("decode then encode is not the identity")
		}
	})
}
