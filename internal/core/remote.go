package core

import (
	"context"
	"fmt"
	"time"

	"strata/internal/pubsub"
	"strata/internal/stream"
	"strata/internal/telemetry"
)

// Remote connectors: the client-side counterparts of AddBrokerSource and the
// connector taps, for a process that has no in-process Broker and instead
// talks to a strata-broker over TCP via a *pubsub.ReconnectConn. They are
// what splits one logical pipeline across OS processes — a collector process
// ships raw tuples to the broker, a detection process consumes them — while
// a sampled tuple's trace context rides the frames, so both processes record
// fragments of the same trace.

// DeliverToConn attaches a sink that encodes every result tuple and
// publishes it to the broker behind rc under subject(job). Markers are
// filtered out. When the tuple carries a sampled trace, the publish frame
// carries its context (continuing the span in the broker and any remote
// subscriber) and the local fragment is sealed here — this process's part of
// the story ends at the socket.
//
// Delivery shares ReconnectConn semantics: publishes during an outage are
// buffered (or dropped, per the conn's overflow policy), so the sink is
// at-least-once at best. Use an in-process DeliverDurable for effects that
// must not repeat.
func (fw *Framework) DeliverToConn(name string, in *StreamRef, rc *pubsub.ReconnectConn, subject func(job string) string) {
	if in == nil || rc == nil || subject == nil {
		fw.recordErr(fmt.Errorf("%w: DeliverToConn %q: nil input, conn, or subject fn", ErrBadPipeline, name))
		return
	}
	traces := fw.query.Traces()
	// The sink runs on one goroutine, so a single encode buffer is reused
	// across tuples: PublishMsg writes the frame out (or copies it into the
	// reconnect pending buffer) before returning, never retaining Data.
	var encBuf []byte
	stream.AddSink(fw.query, name, in.singleStream(fw, name), func(t EventTuple) error {
		if t.isMarker() {
			return nil
		}
		start := time.Now()
		data, err := EncodeTupleAppend(encBuf[:0], t)
		if err != nil {
			return fmt.Errorf("conn sink %q: %w", name, err)
		}
		encBuf = data
		msg := pubsub.Message{Subject: subject(t.Job), Data: data}
		if t.Trace != nil {
			if tc := t.Trace.Context(); tc.Valid() && tc.Sampled {
				msg.Traceparent = tc.Traceparent()
			}
		}
		if err := rc.PublishMsg(msg); err != nil {
			return fmt.Errorf("conn sink %q: %w", name, err)
		}
		if t.Trace != nil {
			t.Trace.Record(name, time.Since(start))
			t.Trace.Finish()
			traces.Add(t.Trace)
		}
		return nil
	}, stream.WithShedGate())
}

// AddRemoteReplaySource deploys a positioned source that replays the encoded
// tuples recorded under subject in a *remote* LogStore — one owned by another
// process that serves it with pubsub.ServeLog — in offset order, over the
// connection rc. It is AddReplaySource for a process that does not have the
// log's directory mounted: the worker half of a pipeline split across OS
// processes, pulling its input from the log's owner through the broker.
//
// The pull protocol is offset-addressed (each fetch names the exact next
// offset wanted), so a lossy or severed link only delays progress: lost
// requests and replies are retried, duplicate or stale replies are discarded
// by the cursor, and the emitted sequence is exactly the stored one. Under
// checkpointing the source is positioned — the last fully processed offset
// rides every checkpoint, and a restored pipeline resumes the pull from
// there, making replay-after-crash convergent rather than repetitive.
//
// When total > 0 the source ends after emitting the record at offset
// total-1 (a bounded replay of a known prefix — the e2e harness's mode);
// with total == 0 it follows the log live via the server's long poll until
// ctx is cancelled.
//
// Tuples that arrive without trace context are candidates for fresh sampled
// traces, exactly like a collector source: this process is where the data
// enters the pipeline under test, so traces minted here record the
// worker-side story and MergeFragments can stitch them to the broker's and
// owner's fragments.
func (fw *Framework) AddRemoteReplaySource(name string, rc *pubsub.ReconnectConn, subject string, total int) *StreamRef {
	out := &StreamRef{name: name, kind: kindSource, layerGranular: true}
	if rc == nil {
		fw.recordErr(fmt.Errorf("%w: AddRemoteReplaySource %q: nil conn", ErrBadPipeline, name))
		return out
	}
	start := fw.restoredPos(name)
	out.s = stream.AddPositionedSource(fw.query, name, start, func(ctx context.Context, emit stream.PosEmit[EventTuple]) error {
		const batch = 256
		cur := pubsub.NewRemoteCursor(rc, subject, start)
		for {
			msgs, err := cur.Next(ctx, batch)
			if err != nil {
				return fmt.Errorf("remote replay source %q: %w", name, err)
			}
			for _, m := range msgs {
				t, err := DecodeTuple(m.Data)
				if err != nil {
					return fmt.Errorf("remote replay source %q: %w", name, err)
				}
				if t.Trace == nil {
					if id, ok := fw.sampler.Sample(); ok {
						t.Trace = telemetry.NewTrace(id, fw.name+"/"+name)
					}
				} else {
					t.Trace.Relabel(name)
				}
				t.AvailableAt = time.Now()
				if t.Specimen == "" {
					t.Specimen = DefaultSpecimen
				}
				if t.Portion == "" {
					t.Portion = DefaultPortion
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
	return out
}

// AddConnSource deploys a source consuming encoded tuples from the broker
// behind rc (pattern supports pub/sub wildcards). It is AddBrokerSource for
// a process without an in-process broker: the far half of a pipeline split
// across machines.
//
// A tuple that arrives with trace context — in the codec trailer or, for
// frames published by peers that only set the header, the pubsub frame —
// continues its trace here under this source's name. AvailableAt is
// restamped on arrival, as with every connector source. The source runs
// until ctx is cancelled or, when stopAfter > 0, after that many tuples.
func (fw *Framework) AddConnSource(name string, rc *pubsub.ReconnectConn, pattern string, stopAfter int, subOpts ...pubsub.SubOption) *StreamRef {
	out := &StreamRef{name: name, kind: kindSource, layerGranular: true}
	if rc == nil {
		fw.recordErr(fmt.Errorf("%w: AddConnSource %q: nil conn", ErrBadPipeline, name))
		return out
	}
	out.s = stream.AddSource(fw.query, name, func(ctx context.Context, emit stream.Emit[EventTuple]) error {
		sub, err := rc.Subscribe(pattern, subOpts...)
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
					return fmt.Errorf("conn source %q: %w", name, err)
				}
				if t.Trace == nil && msg.Traceparent != "" {
					if tc, err := telemetry.ParseTraceparent(msg.Traceparent); err == nil {
						t.Trace = telemetry.ContinueTrace(tc, name)
					}
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
