package otimage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary codec: the compact wire form used to ship OT images through the
// pub/sub connectors.
//
//	magic      uint32 ("OTIM")
//	width      uint32
//	height     uint32
//	mmPerPixel float64 bits
//	pixels     width*height uint16, row-major, little endian
const codecMagic uint32 = 0x4f54494d // "OTIM"

// MarshalSize returns the encoded size of the image in bytes.
func (im *Image) MarshalSize() int { return 20 + len(im.Pix)*2 }

// Marshal encodes the image with the binary codec.
func (im *Image) Marshal() []byte {
	return im.MarshalAppend(make([]byte, 0, im.MarshalSize()))
}

// MarshalAppend encodes the image onto dst and returns the extended slice,
// so codec buffers can be pooled by the caller instead of allocated per
// frame.
func (im *Image) MarshalAppend(dst []byte) []byte {
	dst = appendHeader(slices.Grow(dst, im.MarshalSize()), im.Width, im.Height, im.MMPerPixel)
	return appendPixels(dst, im.Pix)
}

func appendHeader(dst []byte, w, h int, mmPerPixel float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, codecMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(mmPerPixel))
}

// MarshalSize returns the encoded size of the view's window in bytes.
func (v View) MarshalSize() int { return 20 + v.Width()*v.Height()*2 }

// MarshalAppend encodes the view's window as a standalone image (the same
// wire form as Image.Marshal, with the window's dimensions) without
// materializing an intermediate copy. The window's position in the
// underlying image is NOT encoded — callers that need it must carry the
// origin separately.
func (v View) MarshalAppend(dst []byte) []byte {
	dst = appendHeader(slices.Grow(dst, v.MarshalSize()), v.Width(), v.Height(), v.Im.MMPerPixel)
	for y := 0; y < v.Height(); y++ {
		dst = appendPixels(dst, v.Row(y))
	}
	return dst
}

// Unmarshal decodes an image produced by Marshal into a fresh image.
func Unmarshal(data []byte) (*Image, error) {
	return unmarshal(data, false)
}

// UnmarshalShared decodes an image produced by Marshal without copying its
// pixels when it can: on a little-endian host, with the pixel section
// (data[20:]) 2-byte aligned, the image's Pix is data[20:] itself. Otherwise
// it copies, as Unmarshal does. When Pix shares data, both are read-only for
// as long as the image lives.
func UnmarshalShared(data []byte) (*Image, error) {
	return unmarshal(data, true)
}

func unmarshal(data []byte, share bool) (*Image, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("otimage: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:4]) != codecMagic {
		return nil, fmt.Errorf("otimage: bad magic")
	}
	w := int(binary.LittleEndian.Uint32(data[4:8]))
	h := int(binary.LittleEndian.Uint32(data[8:12]))
	if w <= 0 || h <= 0 || w > 1<<16 || h > 1<<16 {
		return nil, fmt.Errorf("otimage: implausible dimensions %dx%d", w, h)
	}
	if len(data) != 20+w*h*2 {
		return nil, fmt.Errorf("otimage: size mismatch: header says %dx%d, payload %d bytes", w, h, len(data)-20)
	}
	mm := math.Float64frombits(binary.LittleEndian.Uint64(data[12:20]))
	if share {
		if px := sharedPixels(data[20:]); px != nil {
			return &Image{Width: w, Height: h, MMPerPixel: mm, Pix: px}, nil
		}
	}
	im := New(w, h, mm)
	readPixels(im.Pix, data[20:])
	return im, nil
}
