package core

import (
	"context"
	"testing"
	"time"

	"strata/internal/pubsub"
)

// TestPipelineAcrossTCP runs the machine side and the analysis side as two
// frameworks connected ONLY through the TCP wire protocol — the
// multi-process deployment the paper's Kafka connectors enable. The
// "machine host" publishes encoded raw tuples through a TCP client; the
// "analysis host" (holding the server-side broker) runs detection on them.
func TestPipelineAcrossTCP(t *testing.T) {
	// Analysis host: broker + TCP server + detection framework.
	broker := pubsub.NewBroker()
	defer broker.Close()
	srv, err := pubsub.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	analysis := newTestFramework(t, WithBroker(broker), WithName("analysis-host"))
	const layers = 6
	in := analysis.AddBrokerSource("tap", RawSubject("ot", "tcp-job"), layers)
	det := analysis.DetectEvent("hot", in, func(t *EventTuple, emit func(*EventTuple) error) error {
		if v, _ := t.GetFloat("temp"); v > 1020 {
			return emit(t)
		}
		return nil
	})
	var alerts []int
	analysis.Deliver("expert", det, func(t EventTuple) error {
		alerts = append(alerts, t.Layer)
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	analysisErr := make(chan error, 1)
	go func() { analysisErr <- analysis.Run(ctx) }()
	time.Sleep(50 * time.Millisecond) // let the tap subscribe

	// Machine host: a TCP client publishing encoded tuples (what a
	// collector process on the machine's controller would do).
	machine, err := pubsub.DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	base := time.Now()
	for layer := 1; layer <= layers; layer++ {
		tup := EventTuple{
			TS:    base.Add(time.Duration(layer) * time.Second),
			Job:   "tcp-job",
			Layer: layer,
			KV:    map[string]any{"temp": 1000 + float64(layer)*5},
		}
		data, err := EncodeTuple(tup)
		if err != nil {
			t.Fatal(err)
		}
		if err := machine.Publish(RawSubject("ot", "tcp-job"), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := machine.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := <-analysisErr; err != nil {
		t.Fatalf("analysis Run = %v", err)
	}
	// temp > 1020 → layers 5 and 6.
	if len(alerts) != 2 || alerts[0] != 5 || alerts[1] != 6 {
		t.Fatalf("alerts = %v, want [5 6]", alerts)
	}
}
