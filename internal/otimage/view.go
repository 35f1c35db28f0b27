package otimage

import "fmt"

// View is a zero-copy window into an Image: it aliases the image's Pix with
// the image's row stride instead of copying the region the way SubImage
// does. The region R is kept in the underlying image's coordinates, so cell
// statistics computed through a view locate events on the build plate
// exactly like statistics computed on the full frame.
//
// A view is a borrowed reference: it is valid only while its image is owned
// by someone upstream of every reader of the view. Views are in-process
// only — the tuple codec materializes a copy when a view crosses a
// connector.
type View struct {
	Im *Image
	R  Rect
}

// ViewOf returns a view of region r of im. The region must lie within the
// image bounds.
func (im *Image) ViewOf(r Rect) (View, error) {
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > im.Width || r.Y1 > im.Height || r.Empty() {
		return View{}, fmt.Errorf("%w: %v in %dx%d", ErrBounds, r, im.Width, im.Height)
	}
	return View{Im: im, R: r}, nil
}

// FullView returns a view covering all of im.
func (im *Image) FullView() View {
	return View{Im: im, R: Rect{X0: 0, Y0: 0, X1: im.Width, Y1: im.Height}}
}

// Width returns the view width in pixels.
func (v View) Width() int { return v.R.W() }

// Height returns the view height in pixels.
func (v View) Height() int { return v.R.H() }

// MMPerPixel returns the underlying image's pixel pitch.
func (v View) MMPerPixel() float64 {
	if v.Im == nil {
		return 0
	}
	return v.Im.MMPerPixel
}

// At returns the intensity at view-local (x, y) (0 outside the view).
func (v View) At(x, y int) uint16 {
	if x < 0 || y < 0 || x >= v.R.W() || y >= v.R.H() || v.Im == nil {
		return 0
	}
	return v.Im.Pix[(v.R.Y0+y)*v.Im.Width+v.R.X0+x]
}

// Row returns the y-th row of the view as a slice aliasing the underlying
// image (stride access — no copy).
func (v View) Row(y int) []uint16 {
	base := (v.R.Y0 + y) * v.Im.Width
	return v.Im.Pix[base+v.R.X0 : base+v.R.X1]
}

// AppendSplitCells tiles the view into edge×edge-pixel cells, appending the
// cells to dst (pass dst[:0] to reuse a scratch buffer). Cell regions are in
// the underlying image's coordinates, exactly as Image.SplitCells reports
// them for the same region.
func (v View) AppendSplitCells(dst []Cell, edge int) ([]Cell, error) {
	if v.Im == nil {
		return dst, ErrBounds
	}
	return v.Im.AppendSplitCells(dst, v.R, edge)
}

// SplitCells is the allocating convenience form of AppendSplitCells.
func (v View) SplitCells(edge int) ([]Cell, error) {
	return v.AppendSplitCells(nil, edge)
}

// MaskedMean returns the mean non-zero intensity inside the view.
func (v View) MaskedMean() (mean float64, ok bool) {
	if v.Im == nil {
		return 0, false
	}
	return v.Im.MaskedMean(v.R)
}

// Materialize copies the view's pixels into a fresh, independent Image —
// the escape hatch for data that must outlive the viewed image (connector
// crossings, retained state).
func (v View) Materialize() *Image {
	out := New(v.R.W(), v.R.H(), v.MMPerPixel())
	for y := 0; y < v.R.H(); y++ {
		copy(out.Pix[y*v.R.W():(y+1)*v.R.W()], v.Row(y))
	}
	return out
}

// CellView returns the zero-copy view of one cell produced by splitting
// this image (the cell's Region is already in image coordinates).
func (im *Image) CellView(c Cell) View {
	return View{Im: im, R: c.Region}
}
