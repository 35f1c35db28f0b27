package pubsub

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

func msgPayload(sid, seq uint64, tp, subject, reply, data string) [][]byte {
	p := [][]byte{u64(sid), u64(seq)}
	if tp != "" {
		p = append(p, u16(len(tp)), []byte(tp))
	}
	return append(p, u16(len(subject)), []byte(subject), u16(len(reply)), []byte(reply), []byte(data))
}

// clientReference decodes server→client bytes the way the client must: every
// complete frame parsed whole, its header bounded by the frame. It returns
// the messages for subscription sid in order, and whether a frame the
// client has to reject (a bad length, a header overrunning its frame, an
// error or unknown op) ends the input. A torn final frame is neither.
func clientReference(in []byte, sid uint64) (want []Message, rejects bool) {
	for len(in) >= 4 {
		n := binary.LittleEndian.Uint32(in)
		if n < 1 || n > maxFrameSize {
			return want, true
		}
		if uint64(len(in)-4) < uint64(n) {
			return want, false
		}
		op, cur := in[4], cursor{b: in[5 : 4+n]}
		in = in[4+n:]
		switch op {
		case opPong:
			continue
		case opMsg, opMsgT:
		default:
			return want, true
		}
		id, seq := cur.u64(), cur.u64()
		var tp []byte
		if op == opMsgT {
			tp = cur.str()
		}
		subj, reply := cur.str(), cur.str()
		data := cur.rest()
		if cur.err != nil {
			return want, true
		}
		if id == sid {
			want = append(want, Message{Subject: string(subj), Reply: string(reply), Data: data, Seq: seq, Traceparent: string(tp)})
		}
	}
	return want, false
}

// FuzzClientConn feeds arbitrary server→client bytes to a link over
// net.Pipe with one subscription attached. The link must not panic, must
// deliver exactly the messages of well-formed frames (none whose header
// runs past its frame), and must tear itself down at the first frame it has
// to reject.
func FuzzClientConn(f *testing.F) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	msg := fuzzFrame(opMsg, msgPayload(1, 1, "", "layer.1.ot", "", "pixels")...)
	msgT := fuzzFrame(opMsgT, msgPayload(1, 2, tp, "layer.2.ot", "inbox.1", "px")...)
	f.Add(msg)
	f.Add(msgT)
	f.Add(bytes.Join([][]byte{msg, fuzzFrame(opPong), msgT, fuzzFrame(opMsg, msgPayload(9, 3, "", "other", "", "x")...)}, nil))
	f.Add(msg[:12])                                                         // a header torn short
	f.Add(fuzzFrame(opMsg, u64(1), u64(1), u16(200), []byte("short")))      // subject past the frame end
	f.Add(fuzzFrame(opMsgT, u64(1), u64(1), u16(9999), []byte("00-")))      // traceparent past the frame end
	f.Add(fuzzFrame(opMsg, u64(1), u64(1), u16(1), []byte("s"), u16(1)))    // reply past the frame end
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))                         // zero-length frame
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameSize+1))            // over the frame limit
	f.Add(bytes.Join([][]byte{msg, fuzzFrame(opErr, []byte("boom"))}, nil)) // server error
	f.Add(fuzzFrame(42, []byte("?")))                                       // unknown op

	f.Fuzz(func(t *testing.T, in []byte) {
		want, rejects := clientReference(in, 1)
		client, server := net.Pipe()
		defer server.Close()
		go func() { _, _ = io.Copy(io.Discard, server) }() // the SUB frame
		c := newLink(client, 0)
		defer c.Close()
		sub := &subEnd{}
		sub.init(nil)
		sid, err := c.attach(sub, "layer.>", true)
		if err != nil {
			t.Fatal(err)
		}
		if sid != 1 {
			t.Fatalf("first subscription has sid %d, want 1", sid)
		}
		delivered := make(chan []Message, 1)
		go func() {
			var got []Message
			for m := range sub.C {
				got = append(got, m)
			}
			delivered <- got
		}()
		// The link stops reading at a rejected frame and closes its end,
		// which fails the rest of this write.
		_, _ = server.Write(in)
		if !rejects {
			_ = server.Close()
		}
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("the link did not end within 5s (rejects=%v, input %x)", rejects, in)
		}
		sub.shutdown() // the read loop is gone: nothing more arrives
		got := <-delivered
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			g, w := got[i], want[i]
			same = g.Subject == w.Subject && g.Reply == w.Reply && g.Seq == w.Seq &&
				g.Traceparent == w.Traceparent && bytes.Equal(g.Data, w.Data)
		}
		if !same {
			t.Fatalf("delivered %+v, want %+v (input %x)", got, want, in)
		}
	})
}
