package otimage

import (
	"strings"
	"testing"
)

func TestImagePoolReusesBuffer(t *testing.T) {
	var p ImagePool
	a := p.Get(16, 12, 0.5)
	if len(a.Pix) != 16*12 {
		t.Fatalf("Pix len = %d", len(a.Pix))
	}
	a.Pix[0] = 7
	pix := &a.Pix[0]
	p.Recycle(a)

	// sync.Pool may drop the recycled buffer under -race, so reuse is
	// required only without it; the other checks hold for whichever
	// buffer Get returned.
	b := p.Get(16, 12, 0.25)
	reused := &b.Pix[0] == pix
	if !reused && !raceEnabled {
		t.Fatal("Get after Recycle did not reuse the buffer")
	}
	if b.MMPerPixel != 0.25 {
		t.Fatalf("MMPerPixel not refreshed: %v", b.MMPerPixel)
	}
	if reused && b.Pix[0] != 7 {
		t.Fatal("Get is documented to leave pixels dirty")
	}

	z := p.GetZeroed(16, 12, 0.25)
	for i, v := range z.Pix {
		if v != 0 {
			t.Fatalf("GetZeroed left Pix[%d] = %d", i, v)
		}
	}
}

func TestImagePoolDimensionsDontMix(t *testing.T) {
	var p ImagePool
	a := p.Get(8, 8, 1)
	p.Recycle(a)
	b := p.Get(8, 9, 1)
	if len(b.Pix) != 8*9 {
		t.Fatalf("wrong-dimension reuse: len(Pix) = %d", len(b.Pix))
	}
}

func TestImagePoolDoubleRecyclePanics(t *testing.T) {
	var p ImagePool
	im := p.Get(4, 4, 1)
	p.Recycle(im)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Recycle did not panic")
		}
		if !strings.Contains(r.(string), "recycled twice") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Recycle(im)
}

func TestImagePoolRejectsReslicedPix(t *testing.T) {
	var p ImagePool
	im := p.Get(4, 4, 1)
	im.Pix = im.Pix[:8]
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle accepted a truncated Pix")
		}
	}()
	p.Recycle(im)
}

func TestImagePoolRecycleNilNoop(t *testing.T) {
	var p ImagePool
	p.Recycle(nil) // must not panic
}

// TestViewSplitCellsAllocFree pins the hot-path contract the image plane is
// built on: slicing a frame into cells through a view with a reused scratch
// buffer performs zero heap allocations at steady state.
func TestViewSplitCellsAllocFree(t *testing.T) {
	im := New(200, 200, 0.1)
	for i := range im.Pix {
		im.Pix[i] = uint16(i)
	}
	v := im.FullView()
	scratch := make([]Cell, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		cs, err := v.AppendSplitCells(scratch[:0], 10)
		if err != nil {
			t.Fatal(err)
		}
		scratch = cs[:0]
	}); n != 0 {
		t.Fatalf("AppendSplitCells allocates %v objects per run, want 0", n)
	}
}
