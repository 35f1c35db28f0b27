package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"strata/internal/otimage"
	"strata/internal/telemetry"
)

// Binary codec for EventTuples crossing the pub/sub connectors. Layout
// (little endian):
//
//	magic       uint32
//	ts          int64 (unix micro)
//	availableAt int64 (unix micro; 0 = unset)
//	layer       int64
//	deadline    int64 (unix micro; 0 = unset)
//	priority    int64
//	job, specimen, portion: uvarint length + bytes each
//	kvCount     uvarint, then per entry:
//	    key     uvarint length + bytes
//	    type    byte (valString..valImage)
//	    value   type-specific
//	trace trailer (optional, only when the tuple carries a sampled Trace):
//	    tag     byte 0x54 ('T')
//	    traceID 16 bytes
//	    spanID  8 bytes
//	    flags   byte (bit 0: sampled)
//
// The trailer rides after the KV section so decoders that predate it (which
// stop at the KV count they read) ignore it, and its absence costs untraced
// tuples nothing. A decoder that finds it continues the trace: the decoded
// tuple's Trace has the same trace ID with the sender's span as parent, which
// is how one trace spans the source process, the broker, and the sink
// process.
const tupleMagic uint32 = 0x53545450 // "STTP"

// traceTrailerTag marks the optional trace-context trailer after the KV
// section of an encoded tuple.
const traceTrailerTag byte = 0x54 // 'T'

// cellTrailerTag marks the optional inline-cell trailer (EventTuple.Cell)
// after the KV section. Like the trace trailer, decoders that predate it
// ignore the trailing bytes, and tuples without a cell pay nothing.
const cellTrailerTag byte = 0x43 // 'C'

// encodedCellSize is the fixed body size of an encoded cell: col, row, four
// region bounds (int64 each), mean (float64 bits), min and max (uint16).
const encodedCellSize = 6*8 + 8 + 2*2

// traceTrailerLen is the size of the trace trailer: tag, trace ID, span ID,
// flags.
const traceTrailerLen = 1 + 16 + 8 + 1

// KV value type tags.
const (
	valString byte = 1
	valBool   byte = 2
	valInt    byte = 3
	valFloat  byte = 4
	valBytes  byte = 5
	valImage  byte = 6
	valCell   byte = 7
)

// ErrUnsupportedValue is wrapped into EncodeTuple errors for KV values
// outside the codec's type set.
var ErrUnsupportedValue = fmt.Errorf("strata: unsupported KV value type")

// GobEncode implements gob.GobEncoder by delegating to the connector codec,
// so EventTuple can sit inside gob-encoded operator state (checkpoint
// blobs: join buffers, reorder queues, correlate windows). A sampled Trace
// travels as a compact trace-context trailer (trace ID, span ID, flags) so
// a span continues across broker hops and checkpoint restores; the span
// timings themselves stay process-local. KV values must belong to the
// codec's type set.
func (t EventTuple) GobEncode() ([]byte, error) { return EncodeTuple(t) }

// GobDecode implements gob.GobDecoder via the connector codec. It decodes a
// copy of data: data is a slice of a buffer gob owns, and a decoded image
// may share the bytes it was decoded from.
func (t *EventTuple) GobDecode(data []byte) error {
	decoded, err := DecodeTuple(bytes.Clone(data))
	if err != nil {
		return err
	}
	*t = decoded
	return nil
}

// EncodeTuple serializes t for transport through a connector, into one
// allocation sized for the tuple.
func EncodeTuple(t EventTuple) ([]byte, error) {
	return EncodeTupleAppend(make([]byte, 0, encodedSizeHint(t)), t)
}

// encodedSizeHint returns an upper bound of t's encoded size (exact up to
// varint slack), so an 8 MB image tuple is encoded without regrowing.
func encodedSizeHint(t EventTuple) int {
	const varint = binary.MaxVarintLen64
	// Fixed header, the three strings, the KV count, both trailers.
	n := 4 + 5*8 + len(t.Job) + len(t.Specimen) + len(t.Portion) + 4*varint +
		1 + encodedCellSize + traceTrailerLen
	for k, v := range t.KV {
		n += varint + len(k) + 1 + varint // key, type tag, value length or scalar
		switch x := v.(type) {
		case string:
			n += len(x)
		case []byte:
			n += len(x)
		case *otimage.Image:
			n += x.MarshalSize()
		case otimage.View:
			n += x.MarshalSize()
		case otimage.Cell:
			n += encodedCellSize
		}
	}
	return n
}

// EncodeTupleAppend serializes t onto buf and returns the extended slice —
// the reuse-friendly form for steady publish loops that recycle one encode
// buffer instead of allocating per tuple. An image's pixels land at an even
// offset from the tuple's start (see appendImageLen), so a decoder reading
// a tuple that starts at an even address can share them.
func EncodeTupleAppend(buf []byte, t EventTuple) ([]byte, error) {
	start := len(buf)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], tupleMagic)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(t.TS.UnixMicro()))
	buf = append(buf, tmp[:]...)
	avail := int64(0)
	if !t.AvailableAt.IsZero() {
		avail = t.AvailableAt.UnixMicro()
	}
	binary.LittleEndian.PutUint64(tmp[:], uint64(avail))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(t.Layer))
	buf = append(buf, tmp[:]...)
	deadline := int64(0)
	if !t.Deadline.IsZero() {
		deadline = t.Deadline.UnixMicro()
	}
	binary.LittleEndian.PutUint64(tmp[:], uint64(deadline))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(int64(t.Priority)))
	buf = append(buf, tmp[:]...)
	for _, s := range []string{t.Job, t.Specimen, t.Portion} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.KV)))
	for k, v := range t.KV {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		var err error
		buf, err = appendValue(buf, start, v)
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", k, err)
		}
	}
	if !t.Cell.Region.Empty() {
		buf = append(buf, cellTrailerTag)
		buf = appendCell(buf, t.Cell)
	}
	if t.Trace != nil {
		tc := t.Trace.Context()
		if tc.Valid() {
			buf = append(buf, traceTrailerTag)
			buf = append(buf, tc.TraceID[:]...)
			buf = append(buf, tc.SpanID[:]...)
			var flags byte
			if tc.Sampled {
				flags |= 1
			}
			buf = append(buf, flags)
		}
	}
	return buf, nil
}

// appendCell encodes a cell's fixed-size body (see encodedCellSize).
func appendCell(buf []byte, c otimage.Cell) []byte {
	var tmp [8]byte
	for _, f := range [6]int64{int64(c.Col), int64(c.Row),
		int64(c.Region.X0), int64(c.Region.Y0), int64(c.Region.X1), int64(c.Region.Y1)} {
		binary.LittleEndian.PutUint64(tmp[:], uint64(f))
		buf = append(buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(c.Mean))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint16(tmp[:2], c.Min)
	binary.LittleEndian.PutUint16(tmp[2:4], c.Max)
	return append(buf, tmp[:4]...)
}

// decodeCell parses a cell body produced by appendCell; b must hold at
// least encodedCellSize bytes.
func decodeCell(b []byte) otimage.Cell {
	var c otimage.Cell
	c.Col = int(int64(binary.LittleEndian.Uint64(b[0:])))
	c.Row = int(int64(binary.LittleEndian.Uint64(b[8:])))
	c.Region.X0 = int(int64(binary.LittleEndian.Uint64(b[16:])))
	c.Region.Y0 = int(int64(binary.LittleEndian.Uint64(b[24:])))
	c.Region.X1 = int(int64(binary.LittleEndian.Uint64(b[32:])))
	c.Region.Y1 = int(int64(binary.LittleEndian.Uint64(b[40:])))
	c.Mean = math.Float64frombits(binary.LittleEndian.Uint64(b[48:]))
	c.Min = binary.LittleEndian.Uint16(b[56:])
	c.Max = binary.LittleEndian.Uint16(b[58:])
	return c
}

// appendImageLen appends an encoded image's length n so that the image,
// and with its 20-byte header its pixels, starts at an even offset from the
// tuple's start. When the minimal uvarint would leave it odd, the length is
// written one byte longer in non-minimal form: the last byte gains the
// continuation bit and a 0x00 follows, which binary.Uvarint reads as the
// same value.
func appendImageLen(buf []byte, start, n int) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	if (len(buf)-start)%2 != 0 {
		buf[len(buf)-1] |= 0x80
		buf = append(buf, 0)
	}
	return buf
}

// appendValue encodes one KV value onto buf; start is the offset of the
// tuple's first byte in buf.
func appendValue(buf []byte, start int, v any) ([]byte, error) {
	var tmp [8]byte
	switch x := v.(type) {
	case string:
		buf = append(buf, valString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case bool:
		buf = append(buf, valBool)
		if x {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case int64:
		buf = append(buf, valInt)
		binary.LittleEndian.PutUint64(tmp[:], uint64(x))
		return append(buf, tmp[:]...), nil
	case int:
		buf = append(buf, valInt)
		binary.LittleEndian.PutUint64(tmp[:], uint64(int64(x)))
		return append(buf, tmp[:]...), nil
	case float64:
		buf = append(buf, valFloat)
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
		return append(buf, tmp[:]...), nil
	case []byte:
		buf = append(buf, valBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case *otimage.Image:
		buf = append(buf, valImage)
		buf = appendImageLen(buf, start, x.MarshalSize())
		return x.MarshalAppend(buf), nil
	case otimage.View:
		// A view crosses the wire as the standalone image of its window
		// (decoders see a plain valImage); the window's origin in the
		// underlying image is not carried — senders that need it ship it in
		// separate KV entries.
		buf = append(buf, valImage)
		buf = appendImageLen(buf, start, x.MarshalSize())
		return x.MarshalAppend(buf), nil
	case otimage.Cell:
		return appendCell(append(buf, valCell), x), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
	}
}

type decoder struct {
	b   []byte
	pos int
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.b) {
		return 0, fmt.Errorf("strata: truncated tuple")
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.pos+8 > len(d.b) {
		return 0, fmt.Errorf("strata: truncated tuple")
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("strata: bad varint in tuple")
	}
	d.pos += n
	return v, nil
}

func (d *decoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)-d.pos) {
		return nil, fmt.Errorf("strata: truncated tuple payload")
	}
	v := d.b[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(n)
	return string(b), err
}

// DecodeTuple parses a tuple produced by EncodeTuple. Strings, []byte
// values and cells are copied out of data, but an image's pixels may share
// it (otimage.UnmarshalShared): data and every decoded image's Pix are
// read-only for as long as the tuple lives, as pubsub.Message.Data already
// is. A caller that reuses the buffer it decodes from must decode a copy.
func DecodeTuple(data []byte) (EventTuple, error) {
	d := decoder{b: data}
	var t EventTuple
	magic, err := d.u32()
	if err != nil {
		return t, err
	}
	if magic != tupleMagic {
		return t, fmt.Errorf("strata: bad tuple magic %#x", magic)
	}
	ts, err := d.u64()
	if err != nil {
		return t, err
	}
	t.TS = time.UnixMicro(int64(ts))
	avail, err := d.u64()
	if err != nil {
		return t, err
	}
	if int64(avail) != 0 {
		t.AvailableAt = time.UnixMicro(int64(avail))
	}
	layer, err := d.u64()
	if err != nil {
		return t, err
	}
	t.Layer = int(int64(layer))
	deadline, err := d.u64()
	if err != nil {
		return t, err
	}
	if int64(deadline) != 0 {
		t.Deadline = time.UnixMicro(int64(deadline))
	}
	prio, err := d.u64()
	if err != nil {
		return t, err
	}
	t.Priority = int(int64(prio))
	if t.Job, err = d.str(); err != nil {
		return t, err
	}
	if t.Specimen, err = d.str(); err != nil {
		return t, err
	}
	if t.Portion, err = d.str(); err != nil {
		return t, err
	}
	n, err := d.uvarint()
	if err != nil {
		return t, err
	}
	if n > uint64(len(d.b)-d.pos)/2 {
		// An entry is at least a key length and a type tag: a count beyond
		// that is a damaged frame, and must not size the map.
		return t, fmt.Errorf("strata: tuple claims %d KV entries in %d bytes", n, len(d.b)-d.pos)
	}
	if n > 0 {
		t.KV = make(map[string]any, n)
	}
	for i := uint64(0); i < n; i++ {
		key, err := d.str()
		if err != nil {
			return t, err
		}
		val, err := d.value()
		if err != nil {
			return t, fmt.Errorf("key %q: %w", key, err)
		}
		t.KV[key] = val
	}
	// Optional trailers (any order): frames from peers that predate them end
	// exactly at the KV section, and unknown trailing bytes stay ignored (as
	// they always were) so codec evolution keeps working in both directions.
trailers:
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case traceTrailerTag:
			if len(d.b)-d.pos < traceTrailerLen {
				break trailers
			}
			var tc telemetry.TraceContext
			d.pos++
			copy(tc.TraceID[:], d.b[d.pos:d.pos+16])
			d.pos += 16
			copy(tc.SpanID[:], d.b[d.pos:d.pos+8])
			d.pos += 8
			tc.Sampled = d.b[d.pos]&1 != 0
			d.pos++
			if tc.Valid() {
				t.Trace = telemetry.ContinueTrace(tc, "wire")
			}
		case cellTrailerTag:
			if len(d.b)-d.pos < 1+encodedCellSize {
				break trailers
			}
			d.pos++
			t.Cell = decodeCell(d.b[d.pos:])
			d.pos += encodedCellSize
		default:
			break trailers
		}
	}
	return t, nil
}

func (d *decoder) value() (any, error) {
	tag, err := d.bytes(1)
	if err != nil {
		return nil, err
	}
	switch tag[0] {
	case valString:
		return d.str()
	case valBool:
		b, err := d.bytes(1)
		if err != nil {
			return nil, err
		}
		return b[0] != 0, nil
	case valInt:
		v, err := d.u64()
		return int64(v), err
	case valFloat:
		v, err := d.u64()
		return math.Float64frombits(v), err
	case valBytes:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case valImage:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return nil, err
		}
		return otimage.UnmarshalShared(b)
	case valCell:
		b, err := d.bytes(encodedCellSize)
		if err != nil {
			return nil, err
		}
		return decodeCell(b), nil
	default:
		return nil, fmt.Errorf("strata: unknown value tag %d", tag[0])
	}
}
