package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
	"strata/internal/pubsub"
)

// The three benchmark-owned feeds implement bench.Feed: the use-case's two
// collectors, fed from memory (gateFeed), from frames published through
// the broker (liveFeed) or from a remote durable log (replayFeed).
var (
	_ bench.Feed = (*gateFeed)(nil)
	_ bench.Feed = (*liveFeed)(nil)
	_ bench.Feed = (*replayFeed)(nil)
)

// heartbeats is how many payload-free parameter tuples a cross-process
// feed's parameter collector emits after each layer's real one. They fuse
// with nothing; they exist because the fuse join sweeps its buffers only
// every 1024 ingested tuples, which at one (parameters, image) pair per
// layer retains 512 decoded 8 MB frames in the worker. With them the join
// sweeps about every 8 layers and the worker's heap stays flat — on the VM
// class the benchmark runs on, every fresh page costs ~15 µs (the guest
// reports free pages back to the host), so a heap that grows 8 MB per layer
// shows up as stalls of hundreds of ms that depend on the host's state, not
// on the code under test. README.md, "Heartbeats", has the measurements.
const heartbeats = 127

// heartbeatJob is the job id of heartbeat tuples.
const heartbeatJob = "heartbeat"

// emitHeartbeats sends the heartbeat tuples that follow a parameter tuple,
// at its event time.
func emitHeartbeats(after core.EventTuple, emit func(core.EventTuple) error) error {
	hb := core.EventTuple{TS: after.TS, Job: heartbeatJob, AvailableAt: after.AvailableAt}
	for i := 0; i < heartbeats; i++ {
		if err := emit(hb); err != nil {
			return err
		}
	}
	return nil
}

// Subjects of the cross-process workloads.
const (
	subjectOT      = "bench.in.ot"
	subjectPP      = "bench.in.pp"
	subjectVerdict = "bench.out.verdict"
	subjectLogOT   = "bench.log.ot"
	subjectLogPP   = "bench.log.pp"
)

// gateFeed hands the pipeline the tuples a controller pushes into it: the
// in-process workloads' closed loop.
type gateFeed struct {
	mmpp float64
	h    *host
	// pp and ot hold the one layer in flight.
	pp chan core.EventTuple
	ot chan core.EventTuple
}

func newGateFeed(mmpp float64, h *host) *gateFeed {
	return &gateFeed{mmpp: mmpp, h: h, pp: make(chan core.EventTuple, 1), ot: make(chan core.EventTuple, 1)}
}

func (f *gateFeed) MMPerPixel() float64 { return f.mmpp }

func (f *gateFeed) ParamsCollector() core.CollectFunc { return f.collector(f.pp, false) }

func (f *gateFeed) OTCollector() core.CollectFunc { return f.collector(f.ot, true) }

func (f *gateFeed) collector(ch <-chan core.EventTuple, image bool) core.CollectFunc {
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		for {
			select {
			case t, ok := <-ch:
				if !ok {
					return nil
				}
				if image {
					f.h.emitting(layerID(t.Job, t.Layer), time.Now())
				}
				if err := emit(t); err != nil {
					return err
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// liveFeed receives the frames the driver publishes through the broker and
// decodes them with the connector codec — the worker side of live_xproc.
type liveFeed struct {
	mmpp  float64
	h     *host
	otSub *pubsub.ReconnectSub
	ppSub *pubsub.ReconnectSub
}

// subscribeLive subscribes to both input subjects. Frames are 8 MB: the
// buffer only has to ride out a checkpoint pause, not hold a backlog.
func subscribeLive(rc *pubsub.ReconnectConn, mmpp float64, h *host) (*liveFeed, error) {
	ot, err := rc.Subscribe(subjectOT, pubsub.WithSubBuffer(16))
	if err != nil {
		return nil, err
	}
	pp, err := rc.Subscribe(subjectPP, pubsub.WithSubBuffer(16))
	if err != nil {
		return nil, err
	}
	return &liveFeed{mmpp: mmpp, h: h, otSub: ot, ppSub: pp}, nil
}

func (f *liveFeed) MMPerPixel() float64 { return f.mmpp }

// calibration takes the first n OT frames off the subscription as the
// historical layers the classification reference is computed from.
func (f *liveFeed) calibration(n int, timeout time.Duration) ([]amsim.LayerData, error) {
	deadline := time.After(timeout)
	var out []amsim.LayerData
	for len(out) < n {
		select {
		case m, ok := <-f.otSub.C:
			if !ok {
				return nil, fmt.Errorf("subscription closed during calibration")
			}
			ld, err := layerFromFrame(m.Data)
			if err != nil {
				return nil, err
			}
			out = append(out, ld)
		case <-deadline:
			return nil, fmt.Errorf("timed out waiting for %d calibration frames (got %d)", n, len(out))
		}
	}
	return out, nil
}

func layerFromFrame(data []byte) (amsim.LayerData, error) {
	t, err := core.DecodeTuple(data)
	if err != nil {
		return amsim.LayerData{}, err
	}
	im, ok := t.GetImage("ot")
	if !ok {
		return amsim.LayerData{}, fmt.Errorf("calibration frame without OT image")
	}
	return amsim.LayerData{JobID: t.Job, Layer: t.Layer, Image: im}, nil
}

func (f *liveFeed) ParamsCollector() core.CollectFunc { return f.collector(f.ppSub, false) }

func (f *liveFeed) OTCollector() core.CollectFunc { return f.collector(f.otSub, true) }

func (f *liveFeed) collector(sub *pubsub.ReconnectSub, image bool) core.CollectFunc {
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		for {
			select {
			case m, ok := <-sub.C:
				if !ok {
					return nil
				}
				recv := time.Now()
				t, err := core.DecodeTuple(m.Data)
				if err != nil {
					return fmt.Errorf("decode frame on %s: %w", m.Subject, err)
				}
				if image {
					done := time.Now()
					id := layerID(t.Job, t.Layer)
					f.h.spans.add(id, markRecv, recv, recv)
					f.h.spans.add(id, spanDecode, recv, done)
					f.h.emitting(id, done)
				}
				if err := emit(t); err != nil {
					return err
				}
				if !image {
					if err := emitHeartbeats(t, emit); err != nil {
						return err
					}
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// replayFeed pulls a recorded build from the driver's durable log through
// the broker, pass after pass, with a bounded number of layers between
// fetch and commit — the worker side of replay_xproc.
type replayFeed struct {
	mmpp float64
	h    *host
	rc   *pubsub.ReconnectConn
	ring int
	pace *pacer
	// follow tells the parameter collector which layer the image collector
	// started; sized to the in-flight bound so the send never blocks.
	follow chan passLayer
}

type passLayer struct{ pass, layer int }

func newReplayFeed(rc *pubsub.ReconnectConn, mmpp float64, ringLen int, h *host) *replayFeed {
	return &replayFeed{
		mmpp: mmpp, h: h, rc: rc, ring: ringLen,
		pace:   newPacer(replayInflight, ringLen),
		follow: make(chan passLayer, replayInflight+1),
	}
}

func (f *replayFeed) MMPerPixel() float64 { return f.mmpp }

// calibration fetches the first n recorded OT tuples.
func (f *replayFeed) calibration(ctx context.Context, n int) ([]amsim.LayerData, error) {
	cur := pubsub.NewRemoteCursor(f.rc, subjectLogOT, 0)
	var out []amsim.LayerData
	for len(out) < n {
		msgs, err := cur.Next(ctx, 1)
		if err != nil {
			return nil, err
		}
		for _, m := range msgs {
			ld, err := layerFromFrame(m.Data)
			if err != nil {
				return nil, err
			}
			out = append(out, ld)
		}
	}
	return out, nil
}

// restamp moves a recorded tuple (pass 0 of the log) into pass p.
func (f *replayFeed) restamp(t *core.EventTuple, p passLayer) {
	t.Job = jobName(p.pass)
	t.TS = eventTime(p.pass, f.ring, p.layer)
}

func (f *replayFeed) OTCollector() core.CollectFunc {
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		var cur *pubsub.RemoteCursor
		for {
			p, err := f.pace.acquire(ctx)
			if err != nil {
				return err
			}
			if p.layer == 1 {
				cur = pubsub.NewRemoteCursor(f.rc, subjectLogOT, 0)
			}
			id := layerID(jobName(p.pass), p.layer)
			start := time.Now()
			f.h.release(id, start)
			select {
			case f.follow <- p:
			case <-ctx.Done():
				return ctx.Err()
			}
			msgs, err := cur.Next(ctx, 1)
			if err != nil {
				return fmt.Errorf("fetch %s: %w", id, err)
			}
			fetched := time.Now()
			t, err := core.DecodeTuple(msgs[0].Data)
			if err != nil {
				return fmt.Errorf("decode %s: %w", id, err)
			}
			decoded := time.Now()
			f.restamp(&t, p)
			f.h.spans.add(id, spanFetch, start, fetched)
			f.h.spans.add(id, spanDecode, fetched, decoded)
			f.h.emitting(id, decoded)
			if err := emit(t); err != nil {
				return err
			}
		}
	}
}

func (f *replayFeed) ParamsCollector() core.CollectFunc {
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		var cur *pubsub.RemoteCursor
		for {
			var p passLayer
			select {
			case p = <-f.follow:
			case <-ctx.Done():
				return ctx.Err()
			}
			if p.layer == 1 {
				cur = pubsub.NewRemoteCursor(f.rc, subjectLogPP, 0)
			}
			msgs, err := cur.Next(ctx, 1)
			if err != nil {
				return err
			}
			t, err := core.DecodeTuple(msgs[0].Data)
			if err != nil {
				return err
			}
			f.restamp(&t, p)
			if err := emit(t); err != nil {
				return err
			}
			if err := emitHeartbeats(t, emit); err != nil {
				return err
			}
		}
	}
}

// pacer decides when the replay feed may start its next layer: never more
// than limit layers between fetch and commit, and only while a phase is
// open — the warm-up's fixed layer count, or a measured window, which ends
// on the pass boundary nearest to its length so every window holds whole
// passes (the cost of a layer depends on its position in the pass).
type pacer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	limit    int
	ring     int
	inflight int
	// budget is how many more layers may start; negative means until the
	// window's length is reached.
	budget   int
	next     passLayer
	openedAt time.Time
	length   time.Duration
	passes   int
	// attempted records, per pass, how many layers were started.
	attempted map[int]int
}

func newPacer(limit, ringLen int) *pacer {
	p := &pacer{limit: limit, ring: ringLen, attempted: make(map[int]int)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// open lets layers of a fresh pass start from layer 1: n of them when
// n > 0, else whole passes for about d.
func (p *pacer) open(n int, d time.Duration) {
	p.mu.Lock()
	pass := 0
	for used := range p.attempted {
		if used >= pass {
			pass = used + 1
		}
	}
	p.next = passLayer{pass, 1}
	p.budget = n
	if n <= 0 {
		p.budget = -1
	}
	p.openedAt, p.length, p.passes = time.Now(), d, 0
	p.mu.Unlock()
	p.cond.Broadcast()
}

// acquire blocks until the next layer may start and returns it; after the
// ring's last layer the next pass begins, or the window ends.
func (p *pacer) acquire(ctx context.Context) (passLayer, error) {
	stop := context.AfterFunc(ctx, p.cond.Broadcast)
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.budget == 0 || p.inflight >= p.limit {
		if err := ctx.Err(); err != nil {
			return passLayer{}, err
		}
		p.cond.Wait()
	}
	if p.budget > 0 {
		p.budget--
	}
	p.inflight++
	got := p.next
	p.attempted[got.pass] = got.layer
	p.next.layer++
	if p.next.layer > p.ring {
		p.next = passLayer{p.next.pass + 1, 1}
		p.passes++
		if p.budget < 0 && wholePassesDone(time.Since(p.openedAt), p.passes, p.length) {
			p.budget = 0
		}
	}
	return got, nil
}

// wholePassesDone reports whether a window that completed passes passes in
// elapsed should stop rather than start another pass: it stops on the pass
// boundary nearest to length.
func wholePassesDone(elapsed time.Duration, passes int, length time.Duration) bool {
	return elapsed+elapsed/time.Duration(2*passes) >= length
}

// done returns a layer's slot.
func (p *pacer) done() {
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
	p.cond.Broadcast()
}

// drained blocks until the open phase has handed out its last layer and
// none is in flight any more.
func (p *pacer) drained(ctx context.Context) error {
	stop := context.AfterFunc(ctx, p.cond.Broadcast)
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.budget != 0 || p.inflight > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cond.Wait()
	}
	return nil
}

// attemptedByJob reports how many layers of each pass were started.
func (p *pacer) attemptedByJob() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.attempted))
	for pass, n := range p.attempted {
		out[jobName(pass)] = n
	}
	return out
}
