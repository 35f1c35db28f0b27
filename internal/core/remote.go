package core

import (
	"fmt"
	"time"

	"strata/internal/pubsub"
	"strata/internal/stream"
)

// Remote connectors: the counterparts of AddBrokerSource, AddReplaySource and
// the connector taps for a process that talks to a strata-broker over TCP via
// a *pubsub.ReconnectConn. They split one logical pipeline across OS
// processes, while a sampled tuple's trace context rides the frames so every
// process records fragments of the same trace.

// DeliverToConn attaches a sink that encodes every result tuple and
// publishes it to the broker behind rc under subject(job). Markers are
// filtered out. When the tuple carries a sampled trace, the publish frame
// carries its context and the local fragment is sealed here — this
// process's part of the story ends at the socket.
//
// Delivery shares ReconnectConn semantics: publishes during an outage are
// buffered, and once 1024 are pending a publish blocks until the link is
// back. The sink is at-least-once at best; use an in-process DeliverDurable
// for effects that must not repeat.
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
		if err := rc.PublishMsg(connectorMsg(subject(t.Job), data, t)); err != nil {
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

// AddRemoteReplaySource is AddReplaySource over a LogStore that another
// process serves with pubsub.ServeLog, pulled through rc: the worker half of
// a pipeline split across OS processes. Fetches name the exact next offset,
// so a lossy or severed link only delays progress and the emitted sequence
// is exactly the stored one. When total > 0 the source ends after the record
// at offset total-1 (a bounded replay of a known prefix); with total == 0 it
// follows the log live until ctx is cancelled.
func (fw *Framework) AddRemoteReplaySource(name string, rc *pubsub.ReconnectConn, subject string, total int) *StreamRef {
	if rc == nil {
		return fw.badSource("AddRemoteReplaySource", name, "nil conn")
	}
	return fw.addLogSource(name, total, func(from uint64) logCursor {
		return pubsub.NewRemoteCursor(rc, subject, from).Next
	})
}

// AddConnSource is AddBrokerSource for a process without an in-process
// broker: it consumes encoded tuples from the broker behind rc (pattern
// supports pub/sub wildcards), the far half of a pipeline split across
// machines.
func (fw *Framework) AddConnSource(name string, rc *pubsub.ReconnectConn, pattern string, stopAfter int, subOpts ...pubsub.SubOption) *StreamRef {
	if rc == nil {
		return fw.badSource("AddConnSource", name, "nil conn")
	}
	return fw.addSubSource(name, stopAfter, func() (<-chan pubsub.Message, func(), error) {
		sub, err := rc.Subscribe(pattern, subOpts...)
		if err != nil {
			return nil, nil, err
		}
		return sub.C, func() { _ = sub.Unsubscribe() }, nil
	})
}
