package pubsub

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestUnsubscribeRacesConnClose drives Unsubscribe and Close concurrently
// from many goroutines. Run under -race this pins the send/teardown
// synchronization: neither side may write a frame to a torn-down link or
// close a channel mid-send.
func TestUnsubscribeRacesConnClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, srv := startTestServer(t)
		c, err := DialReconnect(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		subs := make([]*ReconnectSub, 4)
		for j := range subs {
			sub, err := c.Subscribe("race.>")
			if err != nil {
				t.Fatal(err)
			}
			subs[j] = sub
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, sub := range subs {
			wg.Add(1)
			go func(sub *ReconnectSub) {
				defer wg.Done()
				<-start
				if err := sub.Unsubscribe(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Unsubscribe() = %v, want nil or ErrClosed", err)
				}
			}(sub)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.Close()
		}()
		close(start)
		wg.Wait()
		// Whatever the interleaving, every subscription channel must end
		// closed and the conn must reject further use.
		for _, sub := range subs {
			select {
			case _, ok := <-sub.C:
				if ok {
					t.Fatal("unexpected message during teardown race")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("subscription channel not closed after race")
			}
		}
		if err := c.Publish("race.x", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Publish after Close = %v, want ErrClosed", err)
		}
	}
}

// TestPublishOnTornDownConnReturnsErrClosed kills the server out from under
// a link and verifies that once the teardown lands, publishing and
// subscribing report ErrClosed rather than raw network errors (the signal a
// ReconnectConn buffers on and redials after).
func TestPublishOnTornDownConnReturnsErrClosed(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv, err := Serve(b, "127.0.0.1:0", withServerLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	c := dialLink(t, srv.Addr(), defaultFlushInterval)
	srv.Close() // server gone; the link's readLoop tears it down

	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.PublishMsg(Message{Subject: "x"})
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatalf("Publish = %v, want ErrClosed", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("teardown never surfaced through Publish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.attach(new(subEnd), "x", true); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach on torn-down link = %v, want ErrClosed", err)
	}
}

// TestPingTimeoutAgainstMuteServer points a client at a raw TCP listener
// that accepts frames but never answers. Ping must fail with its timeout
// rather than hanging.
func TestPingTimeoutAgainstMuteServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Consume frames forever, pong nothing.
				r := bufio.NewReader(conn)
				for {
					_, _, f, err := readRelayFrame(r, nil)
					f.release()
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	c, err := DialReconnect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Ping(100 * time.Millisecond)
	if err == nil {
		t.Fatal("Ping against a mute server must fail")
	}
	if !strings.Contains(err.Error(), "ping timeout") {
		t.Fatalf("Ping error = %v, want a ping timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Ping took %v, should fail near its 100ms timeout", elapsed)
	}
}
