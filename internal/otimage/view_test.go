package otimage

import "testing"

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
