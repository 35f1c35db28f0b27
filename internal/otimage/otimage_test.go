package otimage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"strata/internal/testseed"
)

func randomImage(seed int64, w, h int) *Image {
	im := New(w, h, 0.125)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.Pix {
		im.Pix[i] = uint16(rng.Intn(65536))
	}
	return im
}

func TestAtSetBounds(t *testing.T) {
	im := New(4, 3, 1)
	im.Set(2, 1, 700)
	if got := im.At(2, 1); got != 700 {
		t.Fatalf("At(2,1) = %d, want 700", got)
	}
	// Out-of-bounds reads return 0, writes are ignored.
	for _, xy := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 3}} {
		im.Set(xy[0], xy[1], 9)
		if got := im.At(xy[0], xy[1]); got != 0 {
			t.Errorf("At(%d,%d) = %d, want 0", xy[0], xy[1], got)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	im := randomImage(1, 8, 8)
	cp := im.Clone()
	cp.Set(0, 0, im.At(0, 0)+1)
	if im.At(0, 0) == cp.At(0, 0) {
		t.Fatal("Clone shares pixel storage")
	}
}

func TestSubImage(t *testing.T) {
	im := New(10, 10, 1)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			im.Set(x, y, uint16(y*10+x))
		}
	}
	sub, err := im.SubImage(Rect{X0: 2, Y0: 3, X1: 5, Y1: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Width != 3 || sub.Height != 4 {
		t.Fatalf("sub dims %dx%d, want 3x4", sub.Width, sub.Height)
	}
	if got := sub.At(0, 0); got != 32 {
		t.Fatalf("sub(0,0) = %d, want 32", got)
	}
	if got := sub.At(2, 3); got != 64 {
		t.Fatalf("sub(2,3) = %d, want 64", got)
	}
	if _, err := im.SubImage(Rect{X0: 5, Y0: 5, X1: 11, Y1: 6}); !errors.Is(err, ErrBounds) {
		t.Fatalf("out-of-bounds SubImage error = %v, want ErrBounds", err)
	}
	if _, err := im.SubImage(Rect{X0: 5, Y0: 5, X1: 5, Y1: 6}); !errors.Is(err, ErrBounds) {
		t.Fatalf("empty SubImage error = %v, want ErrBounds", err)
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	b := Rect{X0: 5, Y0: 5, X1: 15, Y1: 15}
	got := a.Intersect(b)
	want := Rect{X0: 5, Y0: 5, X1: 10, Y1: 10}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if !a.Contains(9, 9) || a.Contains(10, 10) {
		t.Fatal("Contains is wrong at the half-open boundary")
	}
	disjoint := a.Intersect(Rect{X0: 20, Y0: 20, X1: 30, Y1: 30})
	if !disjoint.Empty() {
		t.Fatalf("disjoint Intersect = %v, want empty", disjoint)
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	im := randomImage(2, 33, 17)
	data := im.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != im.Width || got.Height != im.Height || got.MMPerPixel != im.MMPerPixel {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range im.Pix {
		if got.Pix[i] != im.Pix[i] {
			t.Fatalf("pixel %d mismatch", i)
		}
	}
}

func TestBinaryCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 40),         // bad magic
		randomImage(3, 4, 4).Marshal()[:25], // truncated payload
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("case %d: Unmarshal accepted garbage", i)
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	im := randomImage(4, 50, 20)
	var buf bytes.Buffer
	if err := im.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 50 || got.Height != 20 {
		t.Fatalf("dims %dx%d", got.Width, got.Height)
	}
	if got.MMPerPixel != im.MMPerPixel {
		t.Fatalf("MMPerPixel %g, want %g (comment round-trip)", got.MMPerPixel, im.MMPerPixel)
	}
	for i := range im.Pix {
		if got.Pix[i] != im.Pix[i] {
			t.Fatalf("pixel %d: %d != %d", i, got.Pix[i], im.Pix[i])
		}
	}
}

func TestPGMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.pgm")
	im := randomImage(5, 16, 16)
	if err := im.SavePGM(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 16 || got.Pix[100] != im.Pix[100] {
		t.Fatal("file round trip mismatch")
	}
}

func TestPGMRejectsWrongFormat(t *testing.T) {
	if _, err := ReadPGM(bytes.NewBufferString("P2\n2 2\n255\n0 0 0 0\n")); err == nil {
		t.Fatal("ReadPGM accepted ASCII PGM")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P5\n2 2\n255\n....")); err == nil {
		t.Fatal("ReadPGM accepted 8-bit maxval")
	}
}

func TestSavePNGAndOverlay(t *testing.T) {
	dir := t.TempDir()
	im := randomImage(6, 32, 32)
	plain := filepath.Join(dir, "a.png")
	if err := im.SavePNG(plain); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "b.png")
	err := im.SaveOverlayPNG(overlay, []Overlay{
		{Region: Rect{X0: 2, Y0: 2, X1: 10, Y1: 10}, Color: ClusterPalette(0)},
		{Region: Rect{X0: 20, Y0: 20, X1: 40, Y1: 40}, Color: ClusterPalette(-1)}, // clipped
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{plain, overlay} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty: %v", p, err)
		}
	}
}

func TestSplitCellsExact(t *testing.T) {
	im := New(8, 8, 1)
	for i := range im.Pix {
		im.Pix[i] = uint16(i)
	}
	cells, err := im.SplitCells(Rect{X0: 0, Y0: 0, X1: 8, Y1: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	// First cell covers pixels (0..3, 0..3): values y*8+x.
	c := cells[0]
	if c.Min != 0 || c.Max != 27 {
		t.Fatalf("cell0 min/max = %d/%d, want 0/27", c.Min, c.Max)
	}
	wantMean := 0.0
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			wantMean += float64(y*8 + x)
		}
	}
	wantMean /= 16
	if c.Mean != wantMean {
		t.Fatalf("cell0 mean = %g, want %g", c.Mean, wantMean)
	}
}

func TestSplitCellsRagged(t *testing.T) {
	im := New(10, 7, 1)
	cells, err := im.SplitCells(Rect{X0: 0, Y0: 0, X1: 10, Y1: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10/4)=3 cols, ceil(7/4)=2 rows.
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	last := cells[len(cells)-1]
	if last.Region.W() != 2 || last.Region.H() != 3 {
		t.Fatalf("border cell dims %dx%d, want 2x3", last.Region.W(), last.Region.H())
	}
}

func TestSplitCellsPropertyCoverage(t *testing.T) {
	// Cells must tile the region exactly: every pixel in exactly one cell.
	prop := func(w8, h8, e8 uint8) bool {
		w, h, edge := int(w8%60)+1, int(h8%60)+1, int(e8%12)+1
		im := New(w, h, 1)
		cells, err := im.SplitCells(Rect{X0: 0, Y0: 0, X1: w, Y1: h}, edge)
		if err != nil {
			return false
		}
		covered := make([]int, w*h)
		for _, c := range cells {
			for y := c.Region.Y0; y < c.Region.Y1; y++ {
				for x := c.Region.X0; x < c.Region.X1; x++ {
					covered[y*w+x]++
				}
			}
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestCellCenterMM(t *testing.T) {
	c := Cell{Region: Rect{X0: 10, Y0: 20, X1: 20, Y1: 40}}
	x, y := c.CenterMM(0.5)
	if x != 7.5 || y != 15 {
		t.Fatalf("CenterMM = (%g, %g), want (7.5, 15)", x, y)
	}
}

func TestMaskedMeanIgnoresBackground(t *testing.T) {
	im := New(4, 1, 1)
	im.Set(0, 0, 0) // background
	im.Set(1, 0, 10)
	im.Set(2, 0, 20)
	im.Set(3, 0, 0)
	mean, ok := im.MaskedMean(Rect{X0: 0, Y0: 0, X1: 4, Y1: 1})
	if !ok || mean != 15 {
		t.Fatalf("MaskedMean = %g,%v want 15,true", mean, ok)
	}
	dark := New(2, 2, 1)
	if _, ok := dark.MeanNonZero(); ok {
		t.Fatal("MeanNonZero of dark image should report ok=false")
	}
}
