package pubsub

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// logRecord frames one fetch-response record as appendLogBatch does.
func logRecord(off uint64, n uint32, data string) []byte {
	b := binary.LittleEndian.AppendUint64(nil, off)
	b = binary.LittleEndian.AppendUint32(b, n)
	return append(b, data...)
}

// FuzzRemoteLogDecode feeds the bytes of a broker message to both remote-log
// decoders. A fetch request is accepted exactly when it is 16 bytes long and
// then re-encodes to the same bytes. A batch decodes to records that,
// re-framed as [offset u64][len u32][data], are a prefix of the input, each
// Data aliasing the input; what follows that prefix is either a too-large
// marker, which ends the batch, or a tail too short for its record.
func FuzzRemoteLogDecode(f *testing.F) {
	f.Add(encodeLogFetchReq(logFetchReq{from: 7, max: 64, waitMs: 500}))
	f.Add(logRecord(0, 5, "layer"))
	f.Add(bytes.Join([][]byte{logRecord(3, 2, "ab"), logRecord(4, 0, ""), logRecord(5, 1, "c")}, nil))
	f.Add(bytes.Join([][]byte{logRecord(1, 1, "x"), logRecord(2, logRecordTooLarge, "")}, nil)) // marker ends the batch
	f.Add(bytes.Join([][]byte{logRecord(2, logRecordTooLarge, ""), logRecord(3, 1, "y")}, nil)) // nothing after a marker
	f.Add(logRecord(9, 100, "short"))                                                           // torn record
	f.Add(logRecord(9, 1, "x")[:15])                                                            // torn header

	f.Fuzz(func(t *testing.T, in []byte) {
		req, err := decodeLogFetchReq(in)
		if (err == nil) != (len(in) == 16) {
			t.Fatalf("decodeLogFetchReq(%d bytes) error = %v", len(in), err)
		}
		if err == nil && !bytes.Equal(encodeLogFetchReq(req), in) {
			t.Fatalf("fetch request %+v re-encodes differently from %x", req, in)
		}

		msgs, tooLarge := decodeLogBatch("s", in)
		pos := 0
		for i, m := range msgs {
			framed := logRecord(m.Offset, uint32(len(m.Data)), string(m.Data))
			if m.Subject != "s" || !bytes.HasPrefix(in[pos:], framed) {
				t.Fatalf("record %d %+v is not the input at byte %d (%x)", i, m, pos, in)
			}
			pos += len(framed)
			if len(m.Data) > 0 && &m.Data[0] != &in[pos-len(m.Data)] {
				t.Fatalf("record %d's data is a copy, want it to alias the input", i)
			}
		}
		rest := in[pos:]
		if tooLarge != nil {
			if len(rest) < 12 || binary.LittleEndian.Uint32(rest[8:12]) != logRecordTooLarge ||
				binary.LittleEndian.Uint64(rest) != tooLarge.Offset || tooLarge.Subject != "s" {
				t.Fatalf("too-large %+v does not mark the record after the %d decoded (%x)", tooLarge, len(msgs), in)
			}
			return
		}
		if len(rest) >= 12 && int64(binary.LittleEndian.Uint32(rest[8:12])) <= int64(len(rest)-12) {
			t.Fatalf("decoding stopped at byte %d before a whole record (%x)", pos, in)
		}
	})
}
