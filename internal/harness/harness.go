// Package harness is a process-level end-to-end test framework: it builds
// the repo's real binaries, spawns them as OS processes wired through
// fault-injecting TCP proxies, gates scenarios on readiness probes, and
// collects flight-recorder dumps, captured logs, and trace fragments as
// failure artifacts.
//
// Where internal/core's chaos tests kill goroutine incarnations inside one
// process, this harness kills processes: a scenario talks to a real
// strata-broker and strata-worker the way an operator's deployment would,
// and every byte between them crosses a socket the test controls. The
// effectively-once claims proved here therefore hold across process death —
// SIGKILL, not context cancellation.
//
// The entry point is New:
//
//	f := harness.New(t)
//	brokerAddr := f.Port()
//	broker := f.Start(harness.ProcSpec{
//	    Name: "broker",
//	    Path: f.Bin("strata-broker"),
//	    Args: []string{"-addr", brokerAddr, "-metrics-addr", metricsAddr},
//	})
//	proxy := f.Proxy(brokerAddr) // worker dials proxy.Addr(), faults on demand
package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"strata/internal/faultinject"
	"strata/internal/obslog"
	"strata/internal/telemetry"
)

// Framework is the surface a scenario drives. It is an interface so
// scenarios (and packages re-expressing their own process fixtures on the
// harness) depend on the capability set, not the wiring; the one
// implementation lives behind New.
type Framework interface {
	// T returns the test this framework instruments.
	T() *testing.T

	// Bin builds (once per test process, cached across scenarios) and
	// returns the path of the named cmd/<name> binary.
	Bin(name string) string

	// Port reserves a fresh loopback TCP address ("127.0.0.1:<port>") for a
	// process to listen on. The port is bound and released before returning,
	// so a restarted process can reclaim the same address.
	Port() string

	// Start spawns one process and begins capturing its output. The process
	// is stopped (escalating to SIGKILL) and reaped at test cleanup. Start
	// counts against the spec's restart budget; exceeding it fails the test.
	Start(spec ProcSpec) *Proc

	// Proxy starts a fault-injecting TCP relay to target, closed at test
	// cleanup. Point a client's address flag at Proxy(...).Addr() and the
	// scenario can sever, blackhole, delay, or corrupt that link live.
	Proxy(target string) *faultinject.Proxy

	// ArtifactDir is where this scenario's evidence lands:
	// bench-out/e2e/<TestName>/ under the module root. Process logs and
	// flight-recorder dump directories are placed there automatically.
	ArtifactDir() string

	// WaitReady polls http://addr/readyz until it returns 200, failing the
	// test after timeout. Readiness is the gate between "process spawned"
	// and "scenario may inject faults": a fault landing on a half-started
	// process proves nothing.
	WaitReady(addr string, timeout time.Duration)

	// MetricValue fetches http://addr/metrics and returns the sum of the
	// named metric across its label sets.
	MetricValue(addr, metric string) (float64, error)

	// WaitMetric polls MetricValue until pred accepts it, failing the test
	// after timeout.
	WaitMetric(addr, metric string, timeout time.Duration, pred func(float64) bool)

	// Fragments fetches one process's span fragments for a trace ID from
	// http://addr/debug/trace/<id>, returning nil when the process has none.
	Fragments(addr, id string) []telemetry.TraceSnapshot

	// RegisterEndpoint associates a telemetry address with a label so the
	// failure-artifact collector can snapshot its /metrics and /debug/traces.
	RegisterEndpoint(label, addr string)
}

// restartBudget caps how many times one ProcSpec.Name may be started (first
// launch included). Chaos scenarios restart processes on purpose; the budget
// turns an accidental crash-restart loop into a test failure instead of a
// hung suite.
const restartBudget = 5

type framework struct {
	t           *testing.T
	artifactDir string

	mu        sync.Mutex
	procs     []*Proc
	starts    map[string]int    // spec.Name -> launches
	endpoints map[string]string // label -> telemetry addr
}

// New creates a Framework bound to t. The scenario's artifact directory is
// wiped at the start of the run, so whatever it holds afterwards is evidence
// from this run alone.
func New(t *testing.T) Framework {
	t.Helper()
	dir := filepath.Join(moduleRoot(t), "bench-out", "e2e", sanitize(t.Name()))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatalf("harness: clear artifact dir: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("harness: create artifact dir: %v", err)
	}
	f := &framework{
		t:           t,
		artifactDir: dir,
		starts:      make(map[string]int),
		endpoints:   make(map[string]string),
	}
	// Registered LIFO-last so it runs after per-proc cleanups have reaped
	// everything: the collector reads dumps of dead processes.
	t.Cleanup(f.collectArtifacts)
	return f
}

func (f *framework) T() *testing.T       { return f.t }
func (f *framework) ArtifactDir() string { return f.artifactDir }

func (f *framework) Proxy(target string) *faultinject.Proxy {
	f.t.Helper()
	p, err := faultinject.NewProxy(target)
	if err != nil {
		f.t.Fatalf("harness: proxy to %s: %v", target, err)
	}
	f.t.Cleanup(func() { _ = p.Close() })
	return p
}

func (f *framework) RegisterEndpoint(label, addr string) {
	f.mu.Lock()
	seen := f.endpoints[label] == addr
	f.endpoints[label] = addr
	f.mu.Unlock()
	if seen {
		return
	}
	// Snapshot-on-failure is registered here — after the process's own
	// cleanup — so it runs BEFORE the process is reaped: a snapshot of a
	// dead endpoint would capture nothing.
	f.t.Cleanup(func() {
		if !f.t.Failed() {
			return
		}
		for _, ep := range []string{"/metrics", "/debug/traces", "/debug/pipelines"} {
			body, err := httpGetBody("http://" + addr + ep)
			if err != nil {
				continue // process already gone; its log is the evidence
			}
			name := label + strings.ReplaceAll(ep, "/", "-") + ".txt"
			_ = os.WriteFile(filepath.Join(f.artifactDir, name), body, 0o644)
		}
	})
}

// chargeStart enforces the restart budget for one spec name.
func (f *framework) chargeStart(name string) {
	f.t.Helper()
	f.mu.Lock()
	f.starts[name]++
	n := f.starts[name]
	f.mu.Unlock()
	if n > restartBudget {
		f.t.Fatalf("harness: process %q started %d times, budget %d — restart loop?",
			name, n, restartBudget)
	}
}

// collectArtifacts runs at test cleanup. Process logs are already on disk
// (teed as they streamed); what remains is reading every flight-recorder
// dump the processes left — tolerating torn ones — and, on failure,
// snapshotting each registered telemetry endpoint. On success the artifact
// tree is left in place (make e2e points CI at it) but not narrated.
func (f *framework) collectArtifacts() {
	f.mu.Lock()
	procs := append([]*Proc(nil), f.procs...)
	endpoints := make(map[string]string, len(f.endpoints))
	for k, v := range f.endpoints {
		endpoints[k] = v
	}
	f.mu.Unlock()

	reported := make(map[string]bool)
	for _, p := range procs {
		dumps, err := filepath.Glob(filepath.Join(p.flightDir, "flightrec-*.json"))
		if err != nil {
			continue
		}
		for _, path := range dumps {
			// Restarted incarnations share a flight dir; report each dump once.
			if reported[path] {
				continue
			}
			reported[path] = true
			d, err := readDump(path)
			switch {
			case errors.Is(err, errTornDump):
				// The process died while dumping: damaged evidence, noted
				// and kept, never a reason to stop collecting.
				f.t.Logf("harness: %s: torn flight-recorder dump %s", p.spec.Name, path)
			case err != nil:
				f.t.Logf("harness: %s: unreadable dump %s: %v", p.spec.Name, path, err)
			default:
				f.t.Logf("harness: %s: flight recorder pid=%d reason=%q events=%d (%s)",
					p.spec.Name, d.PID, d.Reason, len(d.Events), path)
			}
		}
	}

	// Idle keep-alive probe connections would otherwise linger past the
	// test and trip the leak checker.
	defer httpClient.CloseIdleConnections()

	if f.t.Failed() {
		f.t.Logf("harness: failure artifacts under %s (%d endpoints snapshotted)",
			f.artifactDir, len(endpoints))
	}
}

// errTornDump reports a flight-recorder dump file whose JSON is truncated
// or otherwise unparseable — the signature of a process that died while
// writing it (or of a pre-atomic-rename dump). collectArtifacts treats it
// as "evidence damaged", not as a reason to stop collecting.
var errTornDump = errors.New("harness: torn flight-recorder dump")

// readDump parses a flight-recorder dump file. A missing file returns the
// os error; a present-but-unparseable file returns errTornDump (wrapped
// with detail), so the harness collects what exists and flags the tear
// instead of wedging on it.
func readDump(path string) (*obslog.Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d obslog.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errTornDump, path, err)
	}
	return &d, nil
}

// sanitize maps a test name to a path-safe directory name.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
