package otimage

import (
	"encoding/binary"
	"unsafe"
)

// The codec's pixel section is little-endian uint16s — the in-memory layout
// of Pix on a little-endian host. There the pixels move as bytes, one bulk
// copy per contiguous run; the per-pixel loops below are the big-endian
// fallback and the reference the bulk path is tested against.
//
// The reverse, bytes read as pixels in place, needs the bytes 2-byte
// aligned; sharedPixels checks that and the caller copies when it fails.

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// pixelBytes returns the memory of px as bytes (host byte order).
func pixelBytes(px []uint16) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(px))), len(px)*2)
}

// sharedPixels returns src as len(src)/2 pixels in place, or nil when the
// host is big-endian or src does not start at an even address.
func sharedPixels(src []byte) []uint16 {
	p := unsafe.SliceData(src)
	if !hostLittleEndian || len(src) < 2 || uintptr(unsafe.Pointer(p))%2 != 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(p)), len(src)/2)
}

// appendPixels appends px to dst as little-endian uint16s.
func appendPixels(dst []byte, px []uint16) []byte {
	if hostLittleEndian {
		return append(dst, pixelBytes(px)...)
	}
	return appendPixelsPortable(dst, px)
}

// readPixels fills px from the little-endian uint16s in src, which must
// hold at least 2*len(px) bytes.
func readPixels(px []uint16, src []byte) {
	if hostLittleEndian {
		copy(pixelBytes(px), src)
		return
	}
	readPixelsPortable(px, src)
}

func appendPixelsPortable(dst []byte, px []uint16) []byte {
	for _, v := range px {
		dst = binary.LittleEndian.AppendUint16(dst, v)
	}
	return dst
}

func readPixelsPortable(px []uint16, src []byte) {
	for i := range px {
		px[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
}
