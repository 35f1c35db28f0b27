package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"strata/internal/otimage"
	"strata/internal/pubsub"
	"strata/internal/stream"
	"strata/internal/telemetry"
)

// rawTap is the raw connector's operator body on broker, with an emit that
// counts what it passes on.
func rawTap(broker *pubsub.Broker, traces *telemetry.TraceBuffer) (tap func(EventTuple) error, passed *int) {
	passed = new(int)
	fn := tapFunc(broker, traces, "ot", "raw-connector.ot", RawSubject)
	emit := stream.Emit[EventTuple](func(EventTuple) error { *passed++; return nil })
	return func(t EventTuple) error { return fn(t, emit) }, passed
}

// TestTapWithoutSubscriberCostsNothing: a tuple nobody can receive is neither
// encoded nor published — an 8 MB frame through an unwatched connector
// allocates zero bytes — while every tuple, markers included, still flows on.
func TestTapWithoutSubscriberCostsNothing(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	// Subscribers on other subjects do not count as listeners.
	other, err := broker.Subscribe(EventSubjectPrefix + ".>")
	if err != nil {
		t.Fatal(err)
	}
	elsewhere, err := broker.Subscribe(RawSubject("ot", "another-job"))
	if err != nil {
		t.Fatal(err)
	}
	tap, passed := rawTap(broker, telemetry.NewTraceBuffer(8))
	tup := imageTuple("job", otimage.New(2000, 2000, 0.125))
	marker := newMarker(&tup, DefaultSpecimen)

	allocs := testing.AllocsPerRun(10, func() {
		if err := tap(tup); err != nil {
			t.Fatal(err)
		}
		if err := tap(marker); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("unwatched tap allocated %v times per tuple, want 0", allocs)
	}
	if *passed != 2*11 { // AllocsPerRun runs the function once to warm up
		t.Errorf("tap passed %d tuples downstream, want %d", *passed, 2*11)
	}
	if st := broker.Stats(); st.Published != 0 {
		t.Errorf("broker counted %d publishes nobody could receive", st.Published)
	}
	if len(other.C)+len(elsewhere.C) != 0 {
		t.Error("a non-matching subscriber received a tuple")
	}
}

// TestTapServesSubscriberJoiningMidStream: the subscriber check is made per
// tuple against the live subscription set. With the tap running on its own
// goroutine, every tuple whose tap started after Subscribe returned must be
// delivered, in order, decodable to the original image, traceparent included;
// markers pass through but are never published.
func TestTapServesSubscriberJoiningMidStream(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	traces := telemetry.NewTraceBuffer(64)
	tap, passed := rawTap(broker, traces)
	im := sampleImage()

	// The tap runs, one layer and its marker at a time, until told to stop.
	var started atomic.Int64 // layers whose tap call has begun
	var stop atomic.Bool
	defer stop.Store(true) // also on a failed assertion below
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for layer := 1; !stop.Load(); layer++ {
			tup := imageTuple("job", im)
			tup.Layer = layer
			tup.Trace = telemetry.NewTrace(uint64(layer), "src")
			started.Store(int64(layer))
			if err := tap(tup); err != nil {
				t.Error(err)
				return
			}
			if err := tap(newMarker(&tup, DefaultSpecimen)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for started.Load() < 20 {
		runtime.Gosched() // let some tuples go by unwatched first
	}
	sub, err := broker.Subscribe(RawSubjectPrefix + ".ot.*")
	if err != nil {
		t.Fatal(err)
	}
	// The tap of layer `floor` may have checked before Subscribe returned;
	// every later layer's check happens after it.
	floor := int(started.Load())

	// Once enough has arrived, stop the tap, wait it out and close the
	// subscription; the loop below drains meanwhile, so the tap never blocks.
	enough := make(chan struct{})
	go func() {
		<-enough
		stop.Store(true)
		wg.Wait()
		sub.Unsubscribe()
	}()
	var got []int
	for m := range sub.C {
		tup, err := DecodeTuple(m.Data)
		if err != nil {
			t.Fatal(err)
		}
		if tup.isMarker() {
			t.Fatal("a marker was published on the connector")
		}
		out, ok := tup.GetImage("ot")
		if !ok || !slices.Equal(out.Pix, im.Pix) {
			t.Fatalf("layer %d: image did not survive the connector", tup.Layer)
		}
		if m.Subject != RawSubject("ot", "job") {
			t.Fatalf("subject %q", m.Subject)
		}
		if _, err := telemetry.ParseTraceparent(m.Traceparent); err != nil {
			t.Fatalf("layer %d: traceparent %q: %v", tup.Layer, m.Traceparent, err)
		}
		if got = append(got, tup.Layer); len(got) == 50 {
			close(enough)
		}
	}
	last := int(started.Load())
	if got[0] > floor+1 {
		t.Fatalf("first delivered layer %d, but every layer after %d was tapped after Subscribe returned", got[0], floor)
	}
	for i, layer := range got {
		if layer != got[0]+i {
			t.Fatalf("delivered layers are not contiguous: %v", got)
		}
	}
	if got[len(got)-1] != last {
		t.Fatalf("last delivered layer %d, last tapped %d", got[len(got)-1], last)
	}
	if *passed != 2*last {
		t.Fatalf("tap passed %d tuples downstream, want %d", *passed, 2*last)
	}
	if st := broker.Stats(); int(st.Published) != len(got) {
		t.Fatalf("broker counted %d publishes for %d deliveries", st.Published, len(got))
	}
	if traces.Len() == 0 {
		t.Fatal("published traced tuples left no local fragment")
	}
}

// BenchmarkTapImage prices the raw connector tap on a 2000×2000 frame:
// unwatched it must cost nothing (0 B/op), watched it costs one frame-sized
// buffer (alloc_budget.json: ≤ 1.1× the frame) that the subscriber decodes
// back to the original image.
func BenchmarkTapImage(b *testing.B) {
	tup := frameTuple()
	im, _ := tup.GetImage("ot")
	for _, watched := range []bool{false, true} {
		name := "unwatched"
		if watched {
			name = "watched"
		}
		b.Run(name, func(b *testing.B) {
			broker := pubsub.NewBroker()
			defer broker.Close()
			var sub *pubsub.Subscription
			if watched {
				var err error
				if sub, err = broker.Subscribe(RawSubjectPrefix+".>", pubsub.WithSubBuffer(1)); err != nil {
					b.Fatal(err)
				}
			}
			tap, _ := rawTap(broker, telemetry.NewTraceBuffer(8))
			b.SetBytes(int64(im.Bytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tap(tup); err != nil {
					b.Fatal(err)
				}
				if !watched {
					continue
				}
				m := <-sub.C
				if i == 0 {
					b.StopTimer()
					back, err := DecodeTuple(m.Data)
					if err != nil {
						b.Fatal(err)
					}
					if got, _ := back.GetImage("ot"); got == nil || !slices.Equal(got.Pix, im.Pix) {
						b.Fatal("subscriber's bytes do not decode to the tapped image")
					}
					b.StartTimer()
				}
			}
		})
	}
}
