package core

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"strata/internal/pubsub"
	"strata/internal/telemetry"
	"strata/internal/testseed"
)

// contractTransport deploys one connector source on fw reading subject and
// puts msgs on the transport: a log is written (and served) before the
// pipeline runs; a broker is fed by the returned function once the source
// has subscribed.
// Every transport but the drained log is handed more frames than its end
// condition lets through (stopAfter, total), so the source must stop by
// itself after exactly want tuples.
type contractTransport struct {
	name string
	// header: the transport carries a frame's Traceparent (log records
	// store only the tuple bytes).
	header bool
	deploy func(t *testing.T, fw *Framework, subject string, msgs []pubsub.Message, want int) (*StreamRef, func())
}

// tcpBroker serves a fresh broker over TCP and dials it with a
// ReconnectConn; everything is closed when the test ends.
func tcpBroker(t *testing.T) (*pubsub.Broker, string, *pubsub.ReconnectConn) {
	broker := pubsub.NewBroker()
	srv, err := pubsub.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := pubsub.DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close(); srv.Close(); broker.Close() })
	return broker, srv.Addr(), rc
}

// appendAll records every frame's tuple bytes under subject.
func appendAll(t *testing.T, store *pubsub.LogStore, subject string, msgs []pubsub.Message) {
	for _, m := range msgs {
		if _, err := store.Append(subject, m.Data); err != nil {
			t.Error(err)
		}
	}
}

func openContractLog(t *testing.T) *pubsub.LogStore {
	store, err := pubsub.OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

var contractTransports = []contractTransport{
	{name: "broker", header: true, deploy: func(t *testing.T, fw *Framework, subject string, msgs []pubsub.Message, want int) (*StreamRef, func()) {
		broker := fw.broker
		return fw.AddBrokerSource("in", subject, want), func() {
			waitFor(t, "broker subscription", func() bool { return broker.HasSubscriber(subject) })
			for _, m := range msgs {
				if err := broker.PublishMsg(m); err != nil {
					t.Error(err)
				}
			}
		}
	}},
	{name: "tcp", header: true, deploy: func(t *testing.T, fw *Framework, subject string, msgs []pubsub.Message, want int) (*StreamRef, func()) {
		broker, _, rc := tcpBroker(t)
		return fw.AddConnSource("in", rc, subject, want), func() {
			waitFor(t, "tcp subscription", func() bool { return broker.HasSubscriber(subject) })
			for _, m := range msgs {
				if err := broker.PublishMsg(m); err != nil {
					t.Error(err)
				}
			}
		}
	}},
	{name: "log", deploy: func(t *testing.T, fw *Framework, subject string, msgs []pubsub.Message, want int) (*StreamRef, func()) {
		// Drain-then-stop: the source ends at the end of what was recorded
		// before it started, so only want records are written.
		store := openContractLog(t)
		appendAll(t, store, subject, msgs[:want])
		return fw.AddReplaySource("in", store, subject, false), func() {}
	}},
	{name: "remote-log", deploy: func(t *testing.T, fw *Framework, subject string, msgs []pubsub.Message, want int) (*StreamRef, func()) {
		broker, addr, rc := tcpBroker(t)
		store := openContractLog(t)
		owner, err := pubsub.DialReconnect(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := pubsub.ServeLog(owner, store, subject)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); owner.Close() })
		appendAll(t, store, subject, msgs)
		waitFor(t, "log server subscription", func() bool { return broker.HasSubscriber(pubsub.LogFetchSubject(subject)) })
		return fw.AddRemoteReplaySource("in", rc, subject, want), func() {}
	}},
}

// TestConnectorSourceContract: every connector source — in-process broker,
// TCP broker, local log, remote log — turns the same encoded tuples into the
// same stream: same tuples in the same order, AvailableAt restamped on
// arrival, Specimen/Portion defaulted, the transport's end condition
// honoured, and one trace rule (codec trailer, else the frame's
// traceparent, else the framework's sampler).
func TestConnectorSourceContract(t *testing.T) {
	seed := testseed.Seed(t)
	const sent, want = 8, 6
	old := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	upstream := telemetry.NewTrace(1, "upstream")
	up := upstream.Context()
	upSpan := hex.EncodeToString(up.SpanID[:])
	upTrace := hex.EncodeToString(up.TraceID[:])

	cases := []struct {
		name     string
		sampling int
		trailer  bool // tuples carry a sampled trace in the codec trailer
		header   bool // frames carry the upstream traceparent
		check    func(tr *telemetry.Trace) error
	}{
		{"trailer", 1, true, false, continuesUpstream(upTrace, upSpan)},
		{"header-only", 1, false, true, continuesUpstream(upTrace, upSpan)},
		{"none-sampling-1", 1, false, false, func(tr *telemetry.Trace) error {
			if tr == nil {
				return fmt.Errorf("no trace, want a sampled root trace")
			}
			if s := tr.Snapshot(); s.Label != "contract/in" || s.ParentSpanID != "" {
				return fmt.Errorf("trace label %q parent %q, want root trace labelled contract/in", s.Label, s.ParentSpanID)
			}
			return nil
		}},
		{"none-sampling-0", 0, false, false, func(tr *telemetry.Trace) error {
			if tr != nil {
				return fmt.Errorf("trace %q on an unsampled, untraced tuple", tr.Snapshot().TraceID)
			}
			return nil
		}},
	}

	for _, tp := range contractTransports {
		for _, tc := range cases {
			t.Run(tp.name+"/"+tc.name, func(t *testing.T) {
				if tc.header && !tp.header {
					t.Skip("log records carry no traceparent header")
				}
				rng := rand.New(rand.NewSource(seed))
				subject := RawSubject("contract", "job")
				in := make([]EventTuple, sent)
				msgs := make([]pubsub.Message, sent)
				for i := range in {
					in[i] = EventTuple{
						TS:          old.Add(time.Duration(i) * time.Second),
						AvailableAt: old,
						Job:         "job",
						Layer:       i + 1,
						KV:          map[string]any{"v": rng.Float64()},
					}
					if rng.Intn(2) == 0 {
						in[i].Specimen = fmt.Sprintf("s%d", rng.Intn(4))
					}
					if rng.Intn(2) == 0 {
						in[i].Portion = fmt.Sprintf("p%d", rng.Intn(4))
					}
					enc := in[i]
					if tc.trailer {
						enc.Trace = upstream
					}
					data, err := EncodeTuple(enc)
					if err != nil {
						t.Fatal(err)
					}
					msgs[i] = pubsub.Message{Subject: subject, Data: data}
					if tc.header {
						msgs[i].Traceparent = up.Traceparent()
					}
				}

				fw := newTestFramework(t, WithName("contract"), WithBroker(pubsub.NewBroker()), WithTraceSampling(tc.sampling))
				t.Cleanup(func() { fw.broker.Close() })
				src, feed := tp.deploy(t, fw, subject, msgs, want)
				var out []EventTuple
				fw.Deliver("sink", src, func(e EventTuple) error {
					out = append(out, e)
					return nil
				})
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				runStart := time.Now()
				runErr := make(chan error, 1)
				go func() { runErr <- fw.Run(ctx) }()
				feed()
				if err := <-runErr; err != nil {
					t.Fatalf("Run = %v (the source must end by itself)", err)
				}

				if len(out) != want {
					t.Fatalf("got %d tuples, want %d", len(out), want)
				}
				for i, got := range out {
					exp := in[i]
					if got.Layer != exp.Layer || !got.TS.Equal(exp.TS) || got.Job != exp.Job || got.KV["v"] != exp.KV["v"] {
						t.Errorf("tuple %d = layer %d ts %v v %v, want layer %d ts %v v %v",
							i, got.Layer, got.TS, got.KV["v"], exp.Layer, exp.TS, exp.KV["v"])
					}
					if got.AvailableAt.Before(runStart) {
						t.Errorf("tuple %d AvailableAt %v not restamped (run began %v)", i, got.AvailableAt, runStart)
					}
					wantSpec, wantPortion := exp.Specimen, exp.Portion
					if wantSpec == "" {
						wantSpec = DefaultSpecimen
					}
					if wantPortion == "" {
						wantPortion = DefaultPortion
					}
					if got.Specimen != wantSpec || got.Portion != wantPortion {
						t.Errorf("tuple %d specimen/portion %q/%q, want %q/%q", i, got.Specimen, got.Portion, wantSpec, wantPortion)
					}
					if err := tc.check(got.Trace); err != nil {
						t.Errorf("tuple %d: %v", i, err)
					}
				}
			})
		}
	}
}

// continuesUpstream checks a trace continues the upstream fragment under the
// source's name.
func continuesUpstream(traceID, spanID string) func(*telemetry.Trace) error {
	return func(tr *telemetry.Trace) error {
		if tr == nil {
			return fmt.Errorf("no trace, want the upstream trace continued")
		}
		if s := tr.Snapshot(); s.TraceID != traceID || s.ParentSpanID != spanID || s.Label != "in" {
			return fmt.Errorf("trace %s parent %s label %q, want %s parent %s label \"in\"", s.TraceID, s.ParentSpanID, s.Label, traceID, spanID)
		}
		return nil
	}
}
