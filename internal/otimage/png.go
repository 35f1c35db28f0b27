package otimage

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
)

// SavePNG writes the image as a 16-bit grayscale PNG, auto-scaling the
// intensity range to use the full gray scale (for visual inspection; use
// the PGM/binary codecs for lossless data exchange).
func (im *Image) SavePNG(path string) error {
	var maxV uint16
	for _, v := range im.Pix {
		if v > maxV {
			maxV = v
		}
	}
	scale := 1.0
	if maxV > 0 {
		scale = 65535.0 / float64(maxV)
	}
	out := image.NewGray16(image.Rect(0, 0, im.Width, im.Height))
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			v := uint16(float64(im.Pix[y*im.Width+x]) * scale)
			i := out.PixOffset(x, y)
			out.Pix[i] = byte(v >> 8)
			out.Pix[i+1] = byte(v)
		}
	}
	return savePNG(path, out)
}

// Overlay is a colored region painted on top of a grayscale base when
// rendering cluster maps (Figure 4's right panel).
type Overlay struct {
	Region Rect
	Color  color.RGBA
}

// ClusterPalette returns a deterministic, high-contrast color for cluster
// id (ids < 0, DBSCAN noise, map to red).
func ClusterPalette(id int) color.RGBA {
	if id < 0 {
		return color.RGBA{R: 0xE8, G: 0x45, B: 0x3C, A: 0xFF}
	}
	palette := []color.RGBA{
		{R: 0x2E, G: 0x86, B: 0xDE, A: 0xFF}, // blue
		{R: 0x10, G: 0xAC, B: 0x84, A: 0xFF}, // green
		{R: 0xF3, G: 0x9C, B: 0x12, A: 0xFF}, // orange
		{R: 0x8E, G: 0x44, B: 0xAD, A: 0xFF}, // purple
		{R: 0x16, G: 0xA0, B: 0x85, A: 0xFF}, // teal
		{R: 0xD3, G: 0x54, B: 0x00, A: 0xFF}, // pumpkin
		{R: 0xC0, G: 0x39, B: 0x2B, A: 0xFF}, // brick
		{R: 0x27, G: 0x60, B: 0xB9, A: 0xFF}, // royal
	}
	return palette[id%len(palette)]
}

// SaveOverlayPNG renders the image in gray with the overlays alpha-blended
// on top, for human inspection of detected clusters.
func (im *Image) SaveOverlayPNG(path string, overlays []Overlay) error {
	var maxV uint16
	for _, v := range im.Pix {
		if v > maxV {
			maxV = v
		}
	}
	scale := 1.0
	if maxV > 0 {
		scale = 255.0 / float64(maxV)
	}
	out := image.NewRGBA(image.Rect(0, 0, im.Width, im.Height))
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			g := uint8(float64(im.Pix[y*im.Width+x]) * scale)
			out.SetRGBA(x, y, color.RGBA{R: g, G: g, B: g, A: 0xFF})
		}
	}
	const alpha = 160 // overlay opacity out of 255
	for _, ov := range overlays {
		r := ov.Region.Intersect(Rect{X0: 0, Y0: 0, X1: im.Width, Y1: im.Height})
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				base := out.RGBAAt(x, y)
				out.SetRGBA(x, y, color.RGBA{
					R: blend(base.R, ov.Color.R, alpha),
					G: blend(base.G, ov.Color.G, alpha),
					B: blend(base.B, ov.Color.B, alpha),
					A: 0xFF,
				})
			}
		}
	}
	return savePNG(path, out)
}

func blend(under, over uint8, alpha int) uint8 {
	return uint8((int(over)*alpha + int(under)*(255-alpha)) / 255)
}

func savePNG(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("otimage: create %s: %w", path, err)
	}
	if err := png.Encode(f, img); err != nil {
		return errors.Join(fmt.Errorf("otimage: encode png: %w", err), f.Close())
	}
	return f.Close()
}
