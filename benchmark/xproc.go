package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"strata/internal/core"
	"strata/internal/obslog"
	"strata/internal/pubsub"
)

// xprocSystem is the three-process shape: this driver, the real
// strata-broker binary and the worker role of this binary.
type xprocSystem struct {
	p   plan
	r   *ring
	dir string

	broker     *child
	worker     *child
	rc         *pubsub.ReconnectConn
	metricsURL string
	spans      *spanLog

	// live_xproc: the subscription the worker's verdict tuples come back on.
	verdicts *pubsub.ReconnectSub
	encBuf   []byte
	// pass and layer are the position of the next release.
	pass, layer int
	attempted   map[string]int

	// replay_xproc: the recorded build and its servers.
	log       *pubsub.LogStore
	servers   []*pubsub.LogServer
	logRecord logRecordStats

	publishErrors int
	// reports are the driver-side halves of the measured windows; finish
	// merges the worker's halves in.
	reports []windowReport
}

// logRecordStats describes the set-up append of replay_xproc.
type logRecordStats struct {
	mbPerS        float64
	syncsPerLayer float64
	bytes         int64
}

// xprocWindow carries the broker's counters of one window.
type xprocWindow struct {
	brokerCPUS    float64
	brokerAllocMB float64
	brokerPeakRSS float64
	flushesSaved  float64
}

const childTimeout = 30 * time.Second

func setupXproc(p plan, r *ring, dir, brokerBin string, traced bool) (_ *xprocSystem, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &xprocSystem{p: p, r: r, dir: dir, spans: &spanLog{}, layer: 1, attempted: make(map[string]int)}
	defer func() {
		if err != nil {
			s.kill()
		}
	}()

	addr, err := s.startBroker(brokerBin)
	if err != nil {
		return nil, err
	}
	s.rc, err = pubsub.DialReconnect(addr)
	if err != nil {
		return nil, err
	}
	if p.replay {
		if err := s.recordLog(); err != nil {
			return nil, fmt.Errorf("record log: %w", err)
		}
	} else {
		// Twelve small verdict tuples per layer; the buffer holds several
		// layers' worth so the broker never waits for the driver.
		s.verdicts, err = s.rc.Subscribe(subjectVerdict, pubsub.WithSubBuffer(1024))
		if err != nil {
			return nil, err
		}
	}

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-role", "worker", "-workload", p.name, "-scale", p.sc.name,
		"-broker", addr, "-dir", filepath.Join(dir, "worker")}
	if traced {
		args = append(args, "-trace", "1")
	}
	if err := os.MkdirAll(filepath.Join(dir, "worker"), 0o755); err != nil {
		return nil, err
	}
	s.worker, err = startChild("worker", self, args, filepath.Join(dir, "worker.log"), false)
	if err != nil {
		return nil, err
	}
	if !p.replay {
		if err := s.worker.expectLine("SUBSCRIBED", childTimeout); err != nil {
			return nil, err
		}
		// Calibration history travels the same path as the build will.
		for l := 1; l <= calibLayers; l++ {
			_, otT := s.r.tuples(0, l, time.Now())
			otT.Job = "calibration"
			if err := s.publish(subjectOT, otT); err != nil {
				return nil, err
			}
		}
	}
	if err := s.worker.expectLine("READY", childTimeout); err != nil {
		return nil, err
	}
	return s, nil
}

// startBroker launches strata-broker on free ports and waits for its two
// "listening" log lines — the readiness signal the binary already gives.
func (s *xprocSystem) startBroker(bin string) (addr string, err error) {
	s.broker, err = startChild("broker", bin,
		[]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-log-format", "json"},
		filepath.Join(s.dir, "broker.log"), true)
	if err != nil {
		return "", err
	}
	attr := func(ev obslog.Event, key string) string {
		for _, a := range ev.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	err = s.broker.expect("listening and metrics lines", childTimeout, func(line string) bool {
		var ev obslog.Event
		if json.Unmarshal([]byte(line), &ev) != nil {
			return false
		}
		switch ev.Msg {
		case "listening":
			addr = attr(ev, "addr")
		case "metrics serving":
			s.metricsURL = attr(ev, "url")
		}
		return addr != "" && s.metricsURL != ""
	})
	return addr, err
}

// recordLog appends the ring as one recorded build (pass 0) to a durable
// log with group sync and serves both subjects to the worker.
func (s *xprocSystem) recordLog() error {
	log, err := pubsub.OpenLogStore(filepath.Join(s.dir, "log"), pubsub.WithLogSync(pubsub.SyncGroup))
	if err != nil {
		return err
	}
	s.log = log
	var appending time.Duration
	for l := 1; l <= len(s.r.layers); l++ {
		ppT, otT := s.r.tuples(0, l, time.Time{})
		for _, rec := range []struct {
			subject string
			t       core.EventTuple
		}{{subjectLogPP, ppT}, {subjectLogOT, otT}} {
			data, err := core.EncodeTupleAppend(s.encBuf[:0], rec.t)
			if err != nil {
				return err
			}
			s.encBuf = data
			s.logRecord.bytes += int64(len(data))
			start := time.Now()
			if _, err := log.Append(rec.subject, data); err != nil {
				return err
			}
			appending += time.Since(start)
		}
	}
	_, syncs := log.SyncStats()
	s.logRecord.mbPerS = float64(s.logRecord.bytes) / 1e6 / appending.Seconds()
	s.logRecord.syncsPerLayer = float64(syncs) / float64(len(s.r.layers))
	for _, subject := range []string{subjectLogPP, subjectLogOT} {
		srv, err := pubsub.ServeLog(s.rc, log, subject)
		if err != nil {
			return err
		}
		s.servers = append(s.servers, srv)
	}
	return nil
}

// publish encodes a tuple with the connector codec and publishes it.
func (s *xprocSystem) publish(subject string, t core.EventTuple) error {
	data, err := core.EncodeTupleAppend(s.encBuf[:0], t)
	if err != nil {
		return err
	}
	s.encBuf = data
	return s.rc.PublishMsg(pubsub.Message{Subject: subject, Data: data})
}

// sendLayer publishes the next layer's two tuples; due is the instant the
// layer's latency is timed from.
func (s *xprocSystem) sendLayer(due time.Time) (id string, err error) {
	job := jobName(s.pass)
	id = layerID(job, s.layer)
	ppT, otT := s.r.tuples(s.pass, s.layer, due)
	s.attempted[job] = s.layer
	s.layer++
	if s.layer > len(s.r.layers) {
		s.pass, s.layer = s.pass+1, 1
	}
	if err := s.publish(subjectPP, ppT); err != nil {
		return id, err
	}
	start := time.Now()
	data, err := core.EncodeTupleAppend(s.encBuf[:0], otT)
	if err != nil {
		return id, err
	}
	s.encBuf = data
	encoded := time.Now()
	s.spans.add(id, spanEncode, start, encoded)
	return id, s.rc.PublishMsg(pubsub.Message{Subject: subjectOT, Data: data})
}

// collector tallies verdict tuples into completed layers.
type collector struct {
	mu     sync.Mutex
	counts map[string]int
	done   map[string]time.Time
	bad    int
}

// collect reads verdict tuples until the subscription closes or quit is
// closed, decoding each with the connector codec.
func (s *xprocSystem) collect(c *collector, completed chan<- string, quit <-chan struct{}) {
	for {
		select {
		case m, ok := <-s.verdicts.C:
			if !ok {
				return
			}
			at := time.Now()
			t, err := core.DecodeTuple(m.Data)
			c.mu.Lock()
			if err != nil {
				c.bad++
				c.mu.Unlock()
				continue
			}
			id := layerID(t.Job, t.Layer)
			c.counts[id]++
			full := c.counts[id] == specimens
			if full {
				c.done[id] = at
				delete(c.counts, id)
			}
			c.mu.Unlock()
			if full {
				select {
				case completed <- id:
				case <-quit:
					return
				}
			}
		case <-quit:
			return
		}
	}
}

// liveRun is what the driver saw of the layers it sent.
type liveRun struct {
	// latenciesMS are timed from each layer's due time; lagMS is how late
	// the generator sent it.
	latenciesMS, lagMS []float64
	// last is when the last verdict came back.
	last time.Time
	// timeouts counts layers whose verdict never came back.
	timeouts int
}

// runLive sends n layers (n < 0: until the deadline). With interval 0 it
// releases the next layer when the previous verdict came back (the
// warm-up); otherwise it sends on the fixed schedule whatever the system
// does (open loop).
func (s *xprocSystem) runLive(n int, interval, d time.Duration) (liveRun, error) {
	var run liveRun
	c := &collector{counts: make(map[string]int), done: make(map[string]time.Time)}
	// completed is sized past any backlog the window can build, so the
	// collector never waits for the sender.
	completed := make(chan string, 4096)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.collect(c, completed, quit)
	}()
	defer func() {
		close(quit)
		wg.Wait()
	}()

	due := make(map[string]time.Time)
	start := time.Now()
	sent := 0
	for ; n < 0 || sent < n; sent++ {
		at := time.Now()
		if interval > 0 {
			at = start.Add(time.Duration(sent) * interval)
			if at.Sub(start) >= d {
				break
			}
			if wait := time.Until(at); wait > 0 {
				time.Sleep(wait)
			}
			run.lagMS = append(run.lagMS, ms(time.Since(at)))
		}
		id, err := s.sendLayer(at)
		due[id] = at
		if err != nil {
			s.publishErrors++
			return run, fmt.Errorf("publish %s: %w", id, err)
		}
		if interval == 0 {
			select {
			case <-completed:
			case <-s.worker.done:
				return run, fmt.Errorf("worker exited (log: %s)\n%s", s.worker.logPath, s.worker.logTail())
			case <-time.After(layerTimeout):
				return run, fmt.Errorf("layer %s: no verdict within %v", id, layerTimeout)
			}
		}
	}
	if interval > 0 {
		// Drain: every sent layer gets the QoS (and then some) to come back.
		deadline := time.After(2 * qos)
	drain:
		for got := 0; got < sent; got++ {
			select {
			case <-completed:
			case <-s.worker.done:
				break drain
			case <-deadline:
				break drain
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, at := range due {
		end, ok := c.done[id]
		if !ok {
			run.timeouts++
			continue
		}
		run.latenciesMS = append(run.latenciesMS, ms(end.Sub(at)))
		if end.After(run.last) {
			run.last = end
		}
		s.spans.add(id, spanLayer, at, end)
	}
	s.publishErrors += c.bad
	return run, nil
}

func (s *xprocSystem) warmup() error {
	if s.p.replay {
		if err := s.worker.send(fmt.Sprintf("warm %d", s.p.warm)); err != nil {
			return err
		}
		return s.worker.expectLine("WARM", 2*time.Minute)
	}
	_, err := s.runLive(s.p.warm, 0, 0)
	if s.layer != 1 {
		s.pass, s.layer = s.pass+1, 1
	}
	return err
}

// brokerCounters reads the broker's own /metrics.
func (s *xprocSystem) brokerCounters() (map[string]float64, error) {
	resp, err := http.Get(s.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(raw)), nil
}

func (s *xprocSystem) window(d time.Duration, traced bool) error {
	var rep windowReport
	s.spans.on.Store(traced)
	defer s.spans.on.Store(false)
	before, err := s.brokerCounters()
	if err != nil {
		return err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	self0, broker0 := procCPU(os.Getpid()), procCPU(s.broker.pid())
	begin := fmt.Sprintf("begin %d", d.Milliseconds())
	if traced {
		begin += " trace"
	}
	if err := s.worker.send(begin); err != nil {
		return err
	}
	if err := s.worker.expectLine("BEGUN", childTimeout); err != nil {
		return err
	}
	start := time.Now()
	if !s.p.replay {
		run, err := s.runLive(-1, time.Second/liveRate, d)
		if err != nil {
			return err
		}
		rep.host.LatenciesMS = run.latenciesMS
		rep.host.Layers = len(run.latenciesMS)
		rep.host.WindowS = run.last.Sub(start).Seconds()
		rep.sendLagMS = run.lagMS
		rep.timeouts = run.timeouts
		if err := s.worker.send("end"); err != nil {
			return err
		}
	}
	if err := s.worker.expectLine("ENDED", d+2*time.Minute); err != nil {
		return err
	}
	after, err := s.brokerCounters()
	if err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rep.xproc = xprocWindow{
		brokerCPUS:    procCPU(s.broker.pid()) - broker0,
		brokerAllocMB: (after["go_alloc_bytes_total"] - before["go_alloc_bytes_total"]) / 1e6,
		brokerPeakRSS: peakRSSMB(s.broker.pid()),
		flushesSaved: after["strata_pubsub_server_flushes_saved_total"] -
			before["strata_pubsub_server_flushes_saved_total"],
	}
	rep.cpuS = procCPU(os.Getpid()) - self0 + rep.xproc.brokerCPUS
	rep.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6 + rep.xproc.brokerAllocMB
	s.reports = append(s.reports, rep)
	return nil
}

// finish stops worker and broker and merges the worker's half of every
// window into the driver's.
func (s *xprocSystem) finish() (finishReport, error) {
	fin := finishReport{verdictDir: filepath.Join(s.dir, "worker", "verdicts"), attempted: s.attempted}
	if err := s.worker.stop(childTimeout); err != nil {
		return fin, fmt.Errorf("worker: %w (log: %s)\n%s", err, s.worker.logPath, s.worker.logTail())
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, "worker", workerReportFile))
	if err != nil {
		return fin, err
	}
	var wr workerReport
	if err := json.Unmarshal(raw, &wr); err != nil {
		return fin, err
	}
	if len(wr.Windows) != len(s.reports) {
		return fin, fmt.Errorf("worker reported %d windows, driver measured %d", len(wr.Windows), len(s.reports))
	}
	for i, rep := range s.reports {
		w := wr.Windows[i]
		if !s.p.replay {
			// The driver timed the layers; the worker saw everything else.
			w.LatenciesMS, w.Layers, w.WindowS = rep.host.LatenciesMS, rep.host.Layers, rep.host.WindowS
		}
		rep.host = w
		rep.cpuS += w.CPUS
		rep.allocMB += w.AllocMB
		fin.windows = append(fin.windows, rep)
	}
	if s.p.replay {
		fin.attempted = wr.Attempted
	}
	fin.worker = wr.Extras
	fin.worker.Reconnects += s.rc.Reconnects()
	fin.worker.PublishErrors += int64(s.publishErrors)
	fin.logRecord = s.logRecord
	fin.spans = joinCrossProcess(append(s.spans.take(), wr.Spans...))
	s.closeLinks()
	s.broker.terminate(childTimeout)
	return fin, nil
}

func (s *xprocSystem) closeLinks() {
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.servers = nil
	if s.verdicts != nil {
		_ = s.verdicts.Unsubscribe()
		s.verdicts = nil
	}
	if s.rc != nil {
		_ = s.rc.Close()
		s.rc = nil
	}
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
}

// kill tears everything down on a failure path: children first, so no
// process outlives the driver.
func (s *xprocSystem) kill() {
	if s.worker != nil {
		s.worker.kill()
	}
	s.closeLinks()
	if s.broker != nil {
		s.broker.kill()
	}
}

// buildBroker compiles cmd/strata-broker into dir and returns the binary's
// path — the fallback when no -broker-bin was handed in (go run, go test).
func buildBroker(dir string) (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside the strata module")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	dest, err := filepath.Abs(filepath.Join(dir, "strata-broker"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", dest, "./cmd/strata-broker")
	cmd.Dir = filepath.Dir(gomod)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/strata-broker: %v\n%s", err, msg)
	}
	return dest, nil
}
