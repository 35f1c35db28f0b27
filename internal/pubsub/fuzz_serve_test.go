package pubsub

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// fuzzFrame encodes one wire frame exactly as a peer would send it.
func fuzzFrame(op byte, payload ...[]byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrameTo(w, op, payload...); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func pubPayload(subject, reply, data string) [][]byte {
	return [][]byte{u16(len(subject)), []byte(subject), u16(len(reply)), []byte(reply), []byte(data)}
}

func subPayload(sid uint64, pattern string) [][]byte {
	return [][]byte{u64(sid), u16(len(pattern)), []byte(pattern)}
}

// serveBytes runs one serveConn session over net.Pipe: it writes in, drains
// whatever the server answers, closes the client end, and fails unless the
// session ends within the bound.
func serveBytes(t *testing.T, s *Server, in []byte) {
	t.Helper()
	client, server := net.Pipe()
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.serveConn(server)
		close(done)
	}()
	drained := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, client) // pongs, errors, forwarded messages
		close(drained)
	}()
	// The server stops reading at the first malformed frame, so the write
	// may fail part way; the session must end either way.
	_, _ = client.Write(in)
	_ = client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("serveConn did not return within 5s of the client closing (input %x)", in)
	}
	<-drained
}

// FuzzServeConn feeds arbitrary bytes to the broker's per-connection frame
// decoder. Whatever arrives, serveConn must not panic, must return once the
// peer hangs up, and must leave the broker able to route a normal publish
// from a fresh connection to a subscriber.
func FuzzServeConn(f *testing.F) {
	pub := fuzzFrame(opPub, pubPayload("layer.1.ot", "", "pixels")...)
	sub := fuzzFrame(opSub, subPayload(7, "layer.*.ot")...)
	f.Add(pub)
	f.Add(fuzzFrame(opPubT, append([][]byte{u16(len("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")),
		[]byte("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")}, pubPayload("layer.2.ot", "inbox.1", "px")...)...))
	f.Add(sub)
	f.Add(fuzzFrame(opSub, subPayload(8, "layer.>")...))
	f.Add(fuzzFrame(opSub, append(subPayload(9, "layer.>"), u16(7), []byte("workers"))...)) // an old client's queue group
	f.Add(fuzzFrame(opUnsub, u64(7)))
	f.Add(fuzzFrame(opPing))
	// A whole session: subscribe, publish into the subscription, ping,
	// unsubscribe.
	f.Add(bytes.Join([][]byte{sub, pub, fuzzFrame(opPing), fuzzFrame(opUnsub, u64(7))}, nil))
	// Malformed: a torn length prefix, a length over maxFrameSize, a
	// zero-length frame, a body shorter than its length, a subject length
	// running past the payload, a short unsub, an unknown op, and a
	// traceparent length running past the payload.
	f.Add(pub[:3])
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameSize+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(pub[:len(pub)-2])
	f.Add(fuzzFrame(opPub, u16(200), []byte("short")))
	f.Add(fuzzFrame(opUnsub, []byte{1, 2, 3}))
	f.Add(fuzzFrame(42, []byte("?")))
	f.Add(fuzzFrame(opPubT, u16(9999), []byte("00-")))
	// Frames of relayPoolMin bytes and more are read into recycled relay
	// buffers: a big publish into a subscription (the forwarder releases
	// it), a big non-publish frame, a big frame torn short, and a big
	// publish whose subject runs past the payload (released on the error).
	bigPub := fuzzFrame(opPub, pubPayload("layer.3.ot", "", strings.Repeat("p", relayPoolMin))...)
	f.Add(bytes.Join([][]byte{sub, bigPub, fuzzFrame(opPing)}, nil))
	f.Add(fuzzFrame(opUnsub, u64(7), make([]byte, relayPoolMin)))
	f.Add(bigPub[:len(bigPub)-relayPoolMin/2])
	f.Add(fuzzFrame(opPub, u16(relayPoolMin+10), make([]byte, relayPoolMin)))

	f.Fuzz(func(t *testing.T, in []byte) {
		b := NewBroker()
		defer b.Close()
		s := &Server{
			broker:        b,
			logf:          func(string, ...any) {},
			conns:         make(map[net.Conn]struct{}),
			flushInterval: defaultFlushInterval,
		}
		serveBytes(t, s, in)

		// The broker still works: a well-formed publish from a new
		// connection reaches a subscriber.
		check, err := b.Subscribe("after.fuzz")
		if err != nil {
			t.Fatalf("Subscribe after fuzz input: %v", err)
		}
		serveBytes(t, s, fuzzFrame(opPub, pubPayload("after.fuzz", "", "ok")...))
		select {
		case m := <-check.C:
			if string(m.Data) != "ok" {
				t.Fatalf("delivered %q, want \"ok\"", m.Data)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("publish after fuzz input %x was not delivered", in)
		}
	})
}
