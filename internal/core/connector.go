package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"strata/internal/pubsub"
	"strata/internal/stream"
	"strata/internal/telemetry"
)

// Connector subjects: when a broker is attached, module boundaries publish
// their tuples under these hierarchies so other pipelines, processes, or
// experts can tap them — the role of the paper's Raw Data Connector and
// Event Connector (Kafka in the prototype).
const (
	// RawSubjectPrefix carries collector output: strata.raw.<stream>.<job>.
	RawSubjectPrefix = "strata.raw"
	// EventSubjectPrefix carries detectEvent output: strata.events.<stream>.<job>.
	EventSubjectPrefix = "strata.events"
	// ResultSubjectPrefix carries correlateEvents output: strata.results.<stream>.<job>.
	ResultSubjectPrefix = "strata.results"
)

// RawSubject returns the connector subject of a raw stream's job data.
func RawSubject(streamName, job string) string {
	return fmt.Sprintf("%s.%s.%s", RawSubjectPrefix, streamName, job)
}

// EventSubject returns the connector subject of a detect stream's job data.
func EventSubject(streamName, job string) string {
	return fmt.Sprintf("%s.%s.%s", EventSubjectPrefix, streamName, job)
}

// ResultSubject returns the connector subject of a correlate stream's job
// data.
func ResultSubject(streamName, job string) string {
	return fmt.Sprintf("%s.%s.%s", ResultSubjectPrefix, streamName, job)
}

// tapRaw publishes source tuples on the raw-data connector, when a broker
// is attached.
func (fw *Framework) tapRaw(name string, s *stream.Stream[EventTuple]) *stream.Stream[EventTuple] {
	return fw.tap(name, "raw-connector."+name, s, RawSubject)
}

// tapEventsAll publishes detect outputs on the event connector, preserving
// the branch/single shape of the stage output.
func (fw *Framework) tapEventsAll(name string, branches []*stream.Stream[EventTuple], single *stream.Stream[EventTuple]) ([]*stream.Stream[EventTuple], *stream.Stream[EventTuple]) {
	return fw.tapAll(name, "event-connector."+name, branches, single, EventSubject)
}

// tapResultsAll publishes correlate outputs on the result connector,
// preserving the branch/single shape of the stage output.
func (fw *Framework) tapResultsAll(name string, branches []*stream.Stream[EventTuple], single *stream.Stream[EventTuple]) ([]*stream.Stream[EventTuple], *stream.Stream[EventTuple]) {
	return fw.tapAll(name, "result-connector."+name, branches, single, ResultSubject)
}

func (fw *Framework) tapAll(
	streamName, opName string,
	branches []*stream.Stream[EventTuple],
	single *stream.Stream[EventTuple],
	subject func(streamName, job string) string,
) ([]*stream.Stream[EventTuple], *stream.Stream[EventTuple]) {
	if fw.broker == nil {
		return branches, single
	}
	if single != nil {
		return nil, fw.tap(streamName, opName, single, subject)
	}
	out := make([]*stream.Stream[EventTuple], len(branches))
	for i, b := range branches {
		out[i] = fw.tap(streamName, fmt.Sprintf("%s.%d", opName, i), b, subject)
	}
	return out, nil
}

func (fw *Framework) tap(
	streamName, opName string,
	s *stream.Stream[EventTuple],
	subject func(streamName, job string) string,
) *stream.Stream[EventTuple] {
	if fw.broker == nil {
		return s
	}
	return stream.FlatMap(fw.query, opName, s, tapFunc(fw.broker, fw.query.Traces(), streamName, opName, subject))
}

// tapFunc is the connector tap's operator body: pass every tuple on, and
// publish a copy of the non-marker ones on the connector subject of their job.
func tapFunc(
	broker *pubsub.Broker, traces *telemetry.TraceBuffer,
	streamName, opName string,
	subject func(streamName, job string) string,
) stream.FlatMapFunc[EventTuple, EventTuple] {
	// The operator runs on one goroutine and a build is one job for hours,
	// so the subject is formatted once per job, not once per tuple.
	var job, subj string
	return func(t EventTuple, emit stream.Emit[EventTuple]) error {
		if t.isMarker() {
			return emit(t)
		}
		if subj == "" || t.Job != job {
			job, subj = t.Job, subject(streamName, t.Job)
		}
		// Nothing is encoded or published for a subject nobody listens to:
		// an 8 MB frame costs its encode only when someone can receive it.
		// The check reads the broker's live subscription set per tuple, so a
		// subscriber is served from the first tuple tapped after its
		// Subscribe returned.
		if !broker.HasSubscriber(subj) {
			return emit(t)
		}
		data, err := EncodeTuple(t)
		if err != nil {
			return fmt.Errorf("connector %s: %w", opName, err)
		}
		msg := pubsub.Message{Subject: subj, Data: data}
		if t.Trace != nil {
			if tc := t.Trace.Context(); tc.Valid() && tc.Sampled {
				// The tuple may leave this process here (a remote
				// subscriber continues it), so carry the trace context in
				// the frame and file the local fragment now — Add is
				// idempotent, a local sink finishing the trace later just
				// seals the same entry.
				msg.Traceparent = tc.Traceparent()
				traces.Add(t.Trace)
			}
		}
		if err := broker.PublishMsg(msg); err != nil {
			return fmt.Errorf("connector %s: %w", opName, err)
		}
		return emit(t)
	}
}

// AddReplaySource deploys a source that replays the encoded tuples recorded
// under subject in store, in offset order, and then — when liveAfter is
// true — keeps tailing the log for new records as they are appended.
// Together with pubsub.Record on the raw connector, this is how an
// event-detection pipeline deployed mid-build reprocesses every earlier
// layer before following the build live: the paper's "continuously
// deployed, run, and decommissioned" detection methods without data loss.
//
// The live phase follows the log itself (a cursor), not a broker
// subscription: the recorder is the single writer ordering the topic, so
// the replay→live handoff can neither skip nor duplicate a record — each
// log offset is emitted exactly once. (Earlier versions subscribed to the
// broker for the live phase and could re-deliver records that landed in
// both the log batch and the subscription buffer.)
//
// The source is positioned: under checkpointing, the last fully processed
// offset is part of every checkpoint and a restored pipeline resumes from
// there instead of offset 0.
//
// Replayed tuples keep their original event times (windows behave as if
// live) but get a fresh AvailableAt: latency is measured against when this
// pipeline could first see the data.
func (fw *Framework) AddReplaySource(name string, store *pubsub.LogStore, subject string, liveAfter bool) *StreamRef {
	out := &StreamRef{name: name, kind: kindSource, layerGranular: true}
	if store == nil {
		fw.recordErr(fmt.Errorf("%w: AddReplaySource %q: nil store", ErrBadPipeline, name))
		return out
	}
	start := fw.restoredPos(name)
	out.s = stream.AddPositionedSource(fw.query, name, start, func(ctx context.Context, emit stream.PosEmit[EventTuple]) error {
		emitTuple := func(m pubsub.StoredMessage) error {
			t, err := DecodeTuple(m.Data)
			if err != nil {
				return fmt.Errorf("replay source %q: %w", name, err)
			}
			t.Trace.Relabel(name)
			t.AvailableAt = time.Now()
			if t.Specimen == "" {
				t.Specimen = DefaultSpecimen
			}
			if t.Portion == "" {
				t.Portion = DefaultPortion
			}
			return emit(m.Offset, t)
		}
		const batch = 256
		cur := store.Cursor(subject, start)
		for {
			msgs, err := cur.Next(batch)
			if err != nil {
				return err
			}
			if len(msgs) == 0 {
				break
			}
			for _, m := range msgs {
				if err := emitTuple(m); err != nil {
					return err
				}
			}
		}
		if !liveAfter {
			return nil
		}
		for {
			msgs, err := cur.NextWait(ctx, batch)
			if err != nil {
				if errors.Is(err, pubsub.ErrClosed) {
					return nil // log store closed: the topic has ended
				}
				return err
			}
			for _, m := range msgs {
				if err := emitTuple(m); err != nil {
					return err
				}
			}
		}
	})
	return out
}

// AddBrokerSource deploys a source that consumes encoded tuples from the
// attached broker (pattern supports pub/sub wildcards, e.g.
// "strata.raw.ot.>"). It is how a second STRATA deployment — possibly in
// another process via the TCP server — taps a machine's raw data: the
// pub/sub fan-out is what lets "distinct pipelines from one or more users
// overlap" without re-reading the machine.
//
// The source runs until ctx is cancelled or, when stopAfter > 0, after that
// many tuples. AvailableAt is restamped on arrival: for latency accounting,
// data becomes "available" to this pipeline when the connector delivers it.
func (fw *Framework) AddBrokerSource(name, pattern string, stopAfter int, subOpts ...pubsub.SubOption) *StreamRef {
	out := &StreamRef{name: name, kind: kindSource, layerGranular: true}
	if fw.broker == nil {
		fw.recordErr(fmt.Errorf("%w: AddBrokerSource %q: no broker attached", ErrBadPipeline, name))
		return out
	}
	broker := fw.broker
	out.s = stream.AddSource(fw.query, name, func(ctx context.Context, emit stream.Emit[EventTuple]) error {
		sub, err := broker.Subscribe(pattern, subOpts...)
		if err != nil {
			return err
		}
		defer sub.Unsubscribe()
		seen := 0
		for {
			select {
			case msg, ok := <-sub.C:
				if !ok {
					return nil
				}
				t, err := DecodeTuple(msg.Data)
				if err != nil {
					return fmt.Errorf("broker source %q: %w", name, err)
				}
				t.Trace.Relabel(name)
				t.AvailableAt = time.Now()
				if t.Specimen == "" {
					t.Specimen = DefaultSpecimen
				}
				if t.Portion == "" {
					t.Portion = DefaultPortion
				}
				if err := emit(t); err != nil {
					return err
				}
				seen++
				if stopAfter > 0 && seen >= stopAfter {
					return nil
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	return out
}
