package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"strata/internal/core"
)

// layerTimeout bounds the wait for one layer's verdict: far beyond the 3 s
// QoS, so a hung pipeline fails the run instead of stalling the driver.
const layerTimeout = 20 * time.Second

// system is a set-up system under test that a run can drive: warm it,
// measure windows on it, tear it down. inprocSystem and xprocSystem
// implement it.
type system interface {
	// warmup pushes the discarded warm-up pass through.
	warmup() error
	// window measures for d. traced switches span recording on for the
	// window.
	window(d time.Duration, traced bool) error
	// finish stops the system and returns its measured windows and
	// everything needed to check its verdicts: where they were committed and
	// which layers were attempted.
	finish() (finishReport, error)
	// kill tears the system down on a failure path.
	kill()
}

// windowReport is one measured window of one workload, summed over the
// processes involved.
type windowReport struct {
	host hostReport
	// cpuS and allocMB are totals over driver, broker and worker.
	cpuS    float64
	allocMB float64
	// sendLagMS is how late the open-loop generator ran, per layer.
	sendLagMS []float64
	// timeouts counts layers whose verdict never arrived.
	timeouts int
	xproc    xprocWindow
}

// finishReport is what is left when a system has stopped.
type finishReport struct {
	windows    []windowReport
	verdictDir string
	attempted  map[string]int
	spans      []span
	worker     workerExtras
	logRecord  logRecordStats
}

// inprocSystem is the single-process shape: the driver hosts the pipeline
// itself and releases one layer at a time.
type inprocSystem struct {
	p    plan
	r    *ring
	dir  string
	h    *host
	feed *gateFeed
	done chan string
	// pass and layer are the position of the next release.
	pass, layer int
	attempted   map[string]int
	reports     []windowReport
}

func setupInproc(p plan, r *ring, dir string) (*inprocSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &inprocSystem{
		p: p, r: r, dir: dir, h: newHost(p, &spanLog{}),
		// done is sized to the layers in flight (one), so the pipeline's
		// sink never waits for the controller.
		done:      make(chan string, 1),
		layer:     1,
		attempted: make(map[string]int),
	}
	s.feed = newGateFeed(p.layout.MMPerPixel(), s.h)
	s.h.layerDone = func(id string) { s.done <- id }
	if err := s.h.startInProc(dir, r, s.feed); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// releaseNext pushes the next layer in and waits for its verdict.
func (s *inprocSystem) releaseNext() error {
	id := layerID(jobName(s.pass), s.layer)
	now := time.Now()
	ppT, otT := s.r.tuples(s.pass, s.layer, now)
	s.attempted[jobName(s.pass)] = s.layer
	s.h.release(id, now)
	timeout := time.NewTimer(layerTimeout)
	defer timeout.Stop()
	for _, hand := range []struct {
		ch chan<- core.EventTuple
		t  core.EventTuple
	}{{s.feed.pp, ppT}, {s.feed.ot, otT}} {
		select {
		case hand.ch <- hand.t:
		case <-s.h.failed:
			return fmt.Errorf("layer %s: pipeline ended: %v", id, s.h.failErr)
		case <-timeout.C:
			return fmt.Errorf("layer %s: feed blocked for %v", id, layerTimeout)
		}
	}
	select {
	case got := <-s.done:
		if got != id {
			return fmt.Errorf("layer %s: pipeline completed %s instead", id, got)
		}
	case <-s.h.failed:
		return fmt.Errorf("layer %s: pipeline ended: %v", id, s.h.failErr)
	case <-timeout.C:
		return fmt.Errorf("layer %s: no verdict within %v", id, layerTimeout)
	}
	s.layer++
	if s.layer > len(s.r.layers) {
		s.pass, s.layer = s.pass+1, 1
	}
	return nil
}

func (s *inprocSystem) warmup() error {
	for i := 0; i < s.p.warm; i++ {
		if err := s.releaseNext(); err != nil {
			return err
		}
	}
	// The measured passes start at layer 1 of a fresh job.
	if s.layer != 1 {
		s.pass, s.layer = s.pass+1, 1
	}
	return nil
}

func (s *inprocSystem) window(d time.Duration, traced bool) error {
	s.h.spans.on.Store(traced)
	defer s.h.spans.on.Store(false)
	begin := s.h.beginWindow()
	// Whole passes only: a layer's cost depends on its position in the pass
	// (the correlate window fills up), so a window that stopped mid-pass
	// would measure a different mix of layers every time.
	for passes := 1; ; passes++ {
		for i := 0; i < len(s.r.layers); i++ {
			if err := s.releaseNext(); err != nil {
				return err
			}
		}
		if wholePassesDone(time.Since(begin.at), passes, d) {
			break
		}
	}
	rep := s.h.endWindow(begin)
	s.reports = append(s.reports, windowReport{host: rep, cpuS: rep.CPUS, allocMB: rep.AllocMB})
	return nil
}

func (s *inprocSystem) finish() (finishReport, error) {
	close(s.feed.pp)
	close(s.feed.ot)
	err := s.h.close()
	return finishReport{
		windows:    s.reports,
		verdictDir: filepath.Join(s.dir, "verdicts"),
		attempted:  s.attempted,
		spans:      s.h.spans.take(),
	}, err
}

func (s *inprocSystem) kill() { _ = s.h.close() }
