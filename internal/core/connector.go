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
		// A fresh buffer per tuple: in-process subscribers may keep Data.
		data, err := EncodeTuple(t)
		if err != nil {
			return fmt.Errorf("connector %s: %w", opName, err)
		}
		msg := connectorMsg(subj, data, t)
		if msg.Traceparent != "" {
			// The trace may continue in another process: file the local
			// fragment now. Add is idempotent, so a local sink finishing the
			// trace later seals the same entry.
			traces.Add(t.Trace)
		}
		if err := broker.PublishMsg(msg); err != nil {
			return fmt.Errorf("connector %s: %w", opName, err)
		}
		return emit(t)
	}
}

// connectorMsg is the frame an encoded tuple leaves on: a sampled trace's
// context rides the Traceparent header, so a remote subscriber continues it.
func connectorMsg(subject string, data []byte, t EventTuple) pubsub.Message {
	msg := pubsub.Message{Subject: subject, Data: data}
	if t.Trace != nil {
		if tc := t.Trace.Context(); tc.Valid() && tc.Sampled {
			msg.Traceparent = tc.Traceparent()
		}
	}
	return msg
}

// ingress turns a connector frame into a tuple entering this pipeline at
// source name; every connector source is a transport adapter over it plus
// addSubSource or addLogSource. The trace comes from the codec trailer, else
// the frame's traceparent header, else this framework's sampler (labelled
// "<framework>/<source>", as a collector source's). AvailableAt is
// restamped — data becomes available to this pipeline when the connector
// delivers it; replayed tuples keep their event times — and an empty
// Specimen or Portion gets its default.
func (fw *Framework) ingress(name string, data []byte, traceparent string) (EventTuple, error) {
	t, err := DecodeTuple(data)
	if err != nil {
		return t, fmt.Errorf("connector source %q: %w", name, err)
	}
	if t.Trace == nil && traceparent != "" {
		if tc, err := telemetry.ParseTraceparent(traceparent); err == nil {
			t.Trace = telemetry.ContinueTrace(tc, name)
		}
	}
	if t.Trace != nil {
		t.Trace.Relabel(name)
	} else if id, ok := fw.sampler.Sample(); ok {
		t.Trace = telemetry.NewTrace(id, fw.name+"/"+name)
	}
	t.AvailableAt = time.Now()
	if t.Specimen == "" {
		t.Specimen = DefaultSpecimen
	}
	if t.Portion == "" {
		t.Portion = DefaultPortion
	}
	return t, nil
}

// badSource records a connector source rejected at construction.
func (fw *Framework) badSource(ctor, name, why string) *StreamRef {
	fw.recordErr(fmt.Errorf("%w: %s %q: %s", ErrBadPipeline, ctor, name, why))
	return &StreamRef{name: name, kind: kindSource, layerGranular: true}
}

// addSubSource deploys a source over the subscription subscribe opens (its
// channel and the function ending it). It runs until ctx is cancelled, the
// channel closes or, when stopAfter > 0, after that many tuples.
func (fw *Framework) addSubSource(name string, stopAfter int, subscribe func() (<-chan pubsub.Message, func(), error)) *StreamRef {
	s := stream.AddSource(fw.query, name, func(ctx context.Context, emit stream.Emit[EventTuple]) error {
		c, unsubscribe, err := subscribe()
		if err != nil {
			return err
		}
		defer unsubscribe()
		for seen := 0; stopAfter <= 0 || seen < stopAfter; seen++ {
			select {
			case msg, ok := <-c:
				if !ok {
					return nil
				}
				t, err := fw.ingress(name, msg.Data, msg.Traceparent)
				if err != nil {
					return err
				}
				if err := emit(t); err != nil {
					return err
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
	return &StreamRef{name: name, kind: kindSource, layerGranular: true, s: s}
}

// logCursor reads up to max records at its position and advances past them.
type logCursor func(ctx context.Context, max int) ([]pubsub.StoredMessage, error)

// logBatch is how many records a log source reads per cursor call.
const logBatch = 256

// addLogSource deploys a positioned source over the log cursor open returns
// for the restored offset: under checkpointing the last fully processed
// offset rides every checkpoint and a restored pipeline resumes there. The
// source ends on an empty batch (a drained log) and, when total > 0, after
// the record at offset total-1.
func (fw *Framework) addLogSource(name string, total int, open func(from uint64) logCursor) *StreamRef {
	start := fw.restoredPos(name)
	s := stream.AddPositionedSource(fw.query, name, start, func(ctx context.Context, emit stream.PosEmit[EventTuple]) error {
		next := open(start)
		for {
			msgs, err := next(ctx, logBatch)
			if err != nil {
				return fmt.Errorf("log source %q: %w", name, err)
			}
			if len(msgs) == 0 {
				return nil
			}
			for _, m := range msgs {
				t, err := fw.ingress(name, m.Data, "")
				if err != nil {
					return err
				}
				if err := emit(m.Offset, t); err != nil {
					return err
				}
				if total > 0 && m.Offset+1 >= uint64(total) {
					return nil
				}
			}
		}
	})
	return &StreamRef{name: name, kind: kindSource, layerGranular: true, s: s}
}

// AddReplaySource deploys a positioned source replaying the encoded tuples
// recorded under subject in store, in offset order, and then — when
// liveAfter is true — tailing the log until ctx is cancelled or the store
// closes; a pipeline restored from a checkpoint resumes at the last fully
// processed offset. With pubsub.Record on the raw connector, this is how a
// detection pipeline deployed mid-build reprocesses every earlier layer
// before following the build live, without data loss. The live phase follows
// the log, not a broker subscription: the recorder is the single writer
// ordering the topic, so the handoff can neither skip nor duplicate a record.
func (fw *Framework) AddReplaySource(name string, store *pubsub.LogStore, subject string, liveAfter bool) *StreamRef {
	if store == nil {
		return fw.badSource("AddReplaySource", name, "nil store")
	}
	return fw.addLogSource(name, 0, func(from uint64) logCursor {
		cur := store.Cursor(subject, from)
		return func(ctx context.Context, max int) ([]pubsub.StoredMessage, error) {
			if !liveAfter {
				return cur.Next(max)
			}
			msgs, err := cur.NextWait(ctx, max)
			if errors.Is(err, pubsub.ErrClosed) {
				return nil, nil // log store closed: the topic has ended
			}
			return msgs, err
		}
	})
}

// AddBrokerSource deploys a source that consumes encoded tuples from the
// attached broker (pattern supports pub/sub wildcards, e.g.
// "strata.raw.ot.>"). It is how a second STRATA deployment taps a machine's
// raw data: the pub/sub fan-out is what lets "distinct pipelines from one or
// more users overlap" without re-reading the machine. The source runs until
// ctx is cancelled or, when stopAfter > 0, after that many tuples.
func (fw *Framework) AddBrokerSource(name, pattern string, stopAfter int, subOpts ...pubsub.SubOption) *StreamRef {
	broker := fw.broker
	if broker == nil {
		return fw.badSource("AddBrokerSource", name, "no broker attached")
	}
	return fw.addSubSource(name, stopAfter, func() (<-chan pubsub.Message, func(), error) {
		sub, err := broker.Subscribe(pattern, subOpts...)
		if err != nil {
			return nil, nil, err
		}
		return sub.C, sub.Unsubscribe, nil
	})
}
