package pubsub

import (
	"bytes"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// relayPayloads is a deterministic set of distinct frame-sized payloads:
// payload i is one random base rotated left by off(i) bytes, built into (and
// checked against) the base without storing the set.
type relayPayloads struct{ base []byte }

func newRelayPayloads(size int) relayPayloads {
	base := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(base)
	return relayPayloads{base: base}
}

// off is payload i's rotation: distinct for every i < len(base)/40503.
func (p relayPayloads) off(i int) int { return 1 + i*40503 }

func (p relayPayloads) fill(buf []byte, i int) {
	o := p.off(i)
	copy(buf, p.base[o:])
	copy(buf[len(p.base)-o:], p.base[:o])
}

func (p relayPayloads) ok(data []byte, i int) bool {
	o, n := p.off(i), len(p.base)
	return i >= 0 && o < n && len(data) == n && bytes.Equal(data[:n-o], p.base[o:]) && bytes.Equal(data[n-o:], p.base[:o])
}

// relayIndex is the payload index carried as the last token of a relay subject.
func relayIndex(t *testing.T, subject string) int {
	t.Helper()
	i, err := strconv.Atoi(subject[strings.LastIndexByte(subject, '.')+1:])
	if err != nil {
		t.Errorf("subject %q carries no index", subject)
		return -1
	}
	return i
}

// TestTCPRelayFramesOutliveEveryWrite relays 200 distinct 8 MiB frames
// through Serve, each read into a pooled buffer, to four subscribers at
// once: a TCP blocking subscriber, a TCP subscriber whose forwarder
// subscription is the request inbox's drop-newest with a buffer of 1 (so
// frames that find it full are discarded unwritten), an in-process subscriber holding every Data it
// receives to the end (its frames escape and must never be reused), and a
// TCP subscriber that stops reading midway and is evicted as a slow
// consumer. Every delivered payload must match byte for byte: a frame
// recycled before its last forwarder wrote it, or an escaped frame
// recycled at all, shows up as a damaged payload (or, under -race, a race
// between the forwarder's write and the next frame's read). Reuse itself
// is not asserted: sync.Pool drops items at random under -race.
func TestTCPRelayFramesOutliveEveryWrite(t *testing.T) {
	const frames, size, heldEvery, window = 200, 8 << 20, 20, 3
	payloads := newRelayPayloads(size)
	b := NewBroker(WithSlowConsumerTimeout(200 * time.Millisecond))
	srv, err := Serve(b, "127.0.0.1:0", withServerLogf(func(string, ...any) {}),
		withForwardOptions(func(pattern string) []SubOption {
			switch pattern {
			case "*.*.*":
				return []SubOption{withOverflow(dropNewest), WithSubBuffer(1)}
			case "relay.>":
				return []SubOption{WithSubBuffer(4)}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		b.Close()
	})

	// The slow consumer: a raw connection that reads until told to stop.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(fuzzFrame(opSub, subPayload(1, "relay.>")...)); err != nil {
		t.Fatal(err)
	}
	var stopReading atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1<<16)
		for !stopReading.Load() {
			if _, err := raw.Read(buf); err != nil {
				return
			}
		}
	}()

	held, err := b.Subscribe("relay.held.*")
	if err != nil {
		t.Fatal(err)
	}
	var heldMsgs []Message
	wg.Add(1)
	go func() {
		defer wg.Done()
		for m := range held.C {
			heldMsgs = append(heldMsgs, m)
		}
	}()

	blockC, dropC := dialTest(t, srv), dialTest(t, srv)
	blockSub, err := blockC.Subscribe("relay.*.*")
	if err != nil {
		t.Fatal(err)
	}
	dropSub, err := dropC.Subscribe("*.*.*")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ReconnectConn{blockC, dropC} {
		if err := c.Ping(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Subscriptions < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 subscriptions registered", b.Stats().Subscriptions)
		}
		time.Sleep(time.Millisecond)
	}

	// The blocking subscriber paces the publisher (at most window frames
	// ahead), so no blocking forwarder queues more than a few frames.
	credit := make(chan struct{}, window)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			select {
			case m := <-blockSub.C:
				if relayIndex(t, m.Subject) != i || !payloads.ok(m.Data, i) {
					t.Errorf("block subscriber: message %d (%s) is out of order or damaged", i, m.Subject)
				}
			case <-time.After(30 * time.Second):
				t.Errorf("block subscriber: frame %d never arrived", i)
				return
			}
			<-credit
		}
	}()
	// The drop-newest subscriber receives, in order, every frame its
	// forwarder did not discard; the broker's drop count is final once the
	// publisher's last Ping returns.
	published := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		done := published
		last, got, want := -1, 0, -1
		for got != want {
			select {
			case m := <-dropSub.C:
				i := relayIndex(t, m.Subject)
				if i <= last || !payloads.ok(m.Data, i) {
					t.Errorf("drop-newest subscriber: %s after frame %d is out of order or damaged", m.Subject, last)
				}
				last = i
				got++
			case <-done:
				done = nil
				want = frames - int(b.droppedTotal.Load())
			case <-time.After(30 * time.Second):
				t.Errorf("drop-newest subscriber: received %d frames, want %d", got, want)
				return
			}
		}
	}()

	pub := dialTest(t, srv)
	buf := make([]byte, size)
	for i := 0; i < frames; i++ {
		if i == frames/2 {
			stopReading.Store(true)
		}
		select {
		case credit <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatalf("publisher: no credit for frame %d", i)
		}
		kind := "pass"
		if i%heldEvery == 0 {
			kind = "held"
		}
		payloads.fill(buf, i)
		if err := pub.Publish("relay."+kind+"."+strconv.Itoa(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Ping(30 * time.Second); err != nil { // every frame published
		t.Fatal(err)
	}
	close(published)
	held.Unsubscribe()
	_ = raw.Close()
	wg.Wait()

	if len(heldMsgs) != frames/heldEvery {
		t.Fatalf("in-process subscriber received %d frames, want %d", len(heldMsgs), frames/heldEvery)
	}
	for k, m := range heldMsgs {
		if i := relayIndex(t, m.Subject); i != k*heldEvery || !payloads.ok(m.Data, i) {
			t.Errorf("in-process subscriber: held %s (want index %d) damaged by the end", m.Subject, k*heldEvery)
		}
	}
	if got := b.Stats().Evicted; got != 1 {
		t.Errorf("evicted %d subscriptions, want the slow consumer alone", got)
	}
}
