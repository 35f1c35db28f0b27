// Package otimage provides the Optical Tomography image type STRATA
// pipelines analyze: a 16-bit grayscale raster in which each pixel records
// the integrated light emission of the melt pool at that position during one
// layer (the paper's EOS M290 setup produces 2000×2000-pixel, 8 MB images of
// a 250×250 mm build plate).
//
// The package includes binary and PGM codecs, PNG export for inspection,
// cell/region slicing for the partition stage of the use-case pipeline, and
// basic intensity statistics.
package otimage

import (
	"errors"
	"fmt"
)

// ErrBounds is returned when a requested region falls outside an image.
var ErrBounds = errors.New("otimage: region out of bounds")

// Image is a 16-bit grayscale OT image. Pixels are stored row-major; the
// value at (x, y) is Pix[y*Width+x]. Higher values mean more light emission
// (hotter melt pool).
type Image struct {
	Width  int
	Height int
	// MMPerPixel is the physical size of one pixel edge in millimetres
	// (the paper's setup: 250 mm plate / 2000 px = 0.125 mm/px).
	MMPerPixel float64
	Pix        []uint16
}

// New allocates a zeroed image of the given dimensions.
func New(width, height int, mmPerPixel float64) *Image {
	return &Image{
		Width:      width,
		Height:     height,
		MMPerPixel: mmPerPixel,
		Pix:        make([]uint16, width*height),
	}
}

// At returns the intensity at (x, y). Out-of-bounds coordinates return 0.
func (im *Image) At(x, y int) uint16 {
	if x < 0 || y < 0 || x >= im.Width || y >= im.Height {
		return 0
	}
	return im.Pix[y*im.Width+x]
}

// Set writes the intensity at (x, y). Out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v uint16) {
	if x < 0 || y < 0 || x >= im.Width || y >= im.Height {
		return
	}
	im.Pix[y*im.Width+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := &Image{Width: im.Width, Height: im.Height, MMPerPixel: im.MMPerPixel}
	out.Pix = append([]uint16(nil), im.Pix...)
	return out
}

// Bytes returns the raw pixel payload size in bytes.
func (im *Image) Bytes() int { return len(im.Pix) * 2 }

// Rect is an axis-aligned pixel rectangle, half-open: x ∈ [X0, X1), y ∈ [Y0, Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width in pixels.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height in pixels.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Contains reports whether (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the overlap of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{X0: max(r.X0, o.X0), Y0: max(r.Y0, o.Y0), X1: min(r.X1, o.X1), Y1: min(r.Y1, o.Y1)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// SubImage copies the pixels of region r into a new image. The region must
// lie within the image bounds.
func (im *Image) SubImage(r Rect) (*Image, error) {
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > im.Width || r.Y1 > im.Height || r.Empty() {
		return nil, fmt.Errorf("%w: %v in %dx%d", ErrBounds, r, im.Width, im.Height)
	}
	out := New(r.W(), r.H(), im.MMPerPixel)
	for y := 0; y < r.H(); y++ {
		srcRow := im.Pix[(r.Y0+y)*im.Width+r.X0 : (r.Y0+y)*im.Width+r.X1]
		copy(out.Pix[y*r.W():(y+1)*r.W()], srcRow)
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
