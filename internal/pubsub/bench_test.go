package pubsub

import (
	"context"
	"sync"
	"testing"
	"time"
)

func BenchmarkBrokerPublishOneSubscriber(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	sub, err := br.Subscribe("bench", WithSubBuffer(1024))
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C {
		}
	}()
	data := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish("bench", data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sub.Unsubscribe()
	<-done
}

func BenchmarkBrokerPublishFanOut8(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	var subs []*Subscription
	var drained sync.WaitGroup
	for i := 0; i < 8; i++ {
		sub, err := br.Subscribe("bench", WithSubBuffer(1024))
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, sub)
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range sub.C {
			}
		}()
	}
	data := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish("bench", data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range subs {
		s.Unsubscribe()
	}
	drained.Wait()
}

func BenchmarkBrokerWildcardMatch(b *testing.B) {
	cases := []struct{ pattern, subject string }{
		{"a.b.c", "a.b.c"},
		{"a.*.c", "a.b.c"},
		{"a.>", "a.b.c.d.e"},
	}
	for _, c := range cases {
		b.Run(c.pattern, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !Match(c.pattern, c.subject) {
					b.Fatal("no match")
				}
			}
		})
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0", withServerLogf(func(string, ...any) {}))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	subC, err := DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer subC.Close()
	sub, err := subC.Subscribe("bench", WithSubBuffer(1024))
	if err != nil {
		b.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	pubC, err := DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pubC.Close()

	data := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pubC.Publish("bench", data); err != nil {
			b.Fatal(err)
		}
		<-sub.C
	}
}

// benchTCPPublishThroughput measures pipelined publish throughput over TCP:
// the publisher streams b.N messages without waiting, a drain goroutine
// consumes them, and the run ends when the last delivery lands. interval sets
// the write-side cork on both the server and the clients; 0 reproduces the
// old flush-every-frame wire behavior, so corked vs uncorked quantifies the
// flush amortization directly. The clients are bare links: a ReconnectConn
// always corks at defaultFlushInterval.
func benchTCPPublishThroughput(b *testing.B, interval time.Duration, fanout int) {
	br := NewBroker()
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0",
		withServerLogf(func(string, ...any) {}),
		withFlushInterval(interval))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var subs []*subEnd
	for i := 0; i < fanout; i++ {
		subC := dialLink(b, srv.Addr(), interval)
		subs = append(subs, subscribeLink(b, subC, "bench", WithSubBuffer(4096)))
		if err := subC.Ping(5 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	pubC := dialLink(b, srv.Addr(), interval)

	data := make([]byte, 256)
	// One drainer per subscriber: draining sequentially would stall the
	// publisher once an undrained subscriber's buffers fill.
	var drained sync.WaitGroup
	for _, sub := range subs {
		drained.Add(1)
		go func(sub *subEnd) {
			defer drained.Done()
			for i := 0; i < b.N; i++ {
				<-sub.C
			}
		}(sub)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		drained.Wait()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pubC.PublishMsg(Message{Subject: "bench", Data: data}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func BenchmarkTCPPublishThroughput(b *testing.B) {
	b.Run("corked", func(b *testing.B) {
		benchTCPPublishThroughput(b, defaultFlushInterval, 1)
	})
	b.Run("uncorked", func(b *testing.B) {
		benchTCPPublishThroughput(b, 0, 1)
	})
}

func BenchmarkTCPFanOut4(b *testing.B) {
	b.Run("corked", func(b *testing.B) {
		benchTCPPublishThroughput(b, defaultFlushInterval, 4)
	})
	b.Run("uncorked", func(b *testing.B) {
		benchTCPPublishThroughput(b, 0, 4)
	})
}

func BenchmarkTCPLargeImagePayload(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0", withServerLogf(func(string, ...any) {}))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	subC, err := DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer subC.Close()
	sub, err := subC.Subscribe("img", WithSubBuffer(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := subC.Ping(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	pubC, err := DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pubC.Close()

	// A full-resolution OT image payload (8 MiB). One round trip before
	// the timer gives the broker the relay buffer it then reuses, so B/op
	// is the steady state: the subscribing client's frame alone.
	data := make([]byte, 8<<20)
	if err := pubC.Publish("img", data); err != nil {
		b.Fatal(err)
	}
	<-sub.C
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pubC.Publish("img", data); err != nil {
			b.Fatal(err)
		}
		<-sub.C
	}
}

// BenchmarkRemoteFetch8MiB fetches one 8 MiB record per op through the whole
// remote log path in one process: LogServer reads it from the LogStore into
// its response buffer, publishes it through Serve, and a RemoteCursor
// receives it. The broker relays the frame in a pooled buffer, so the one
// allocation left at steady state is the reading client's frame.
func BenchmarkRemoteFetch8MiB(b *testing.B) {
	const subject = "bench.log.ot"
	br := NewBroker()
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0", withServerLogf(func(string, ...any) {}))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ls, err := OpenLogStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer ls.Close()
	if _, err := ls.Append(subject, make([]byte, 8<<20)); err != nil {
		b.Fatal(err)
	}
	owner, err := DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer owner.Close()
	logSrv, err := ServeLog(owner, ls, subject)
	if err != nil {
		b.Fatal(err)
	}
	defer logSrv.Close()
	reader, err := DialReconnect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer reader.Close()

	// One fetch before the timer sizes the LogServer's response buffer and
	// gives the broker its relay buffer; B/op is the steady state.
	ctx := context.Background()
	fetch := func(i int) {
		msgs, err := NewRemoteCursor(reader, subject, 0).Next(ctx, 1)
		if err != nil || len(msgs) != 1 || len(msgs[0].Data) != 8<<20 {
			b.Fatalf("fetch %d: %d records, %v", i, len(msgs), err)
		}
	}
	fetch(-1)
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch(i)
	}
}
