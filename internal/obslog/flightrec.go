package obslog

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"strata/internal/telemetry"
)

// FlightRecorder is a fixed-size in-memory ring of recent structured
// events — the process black box. Every obslog record lands here at every
// level; on a crash (operator panic, armed faultinject crashpoint,
// SIGQUIT) the ring is dumped to stderr and to a flightrec-<pid>.json
// file, so a `make chaos` kill leaves evidence of the last checkpoint
// epochs, overload ladder transitions, and reconnects that preceded it.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []Event
	next int
	size int

	events atomic.Uint64
	dumps  atomic.Uint64
}

// DefaultRingSize is the default number of retained events.
const DefaultRingSize = 256

// NewFlightRecorder creates a recorder retaining the last n events
// (DefaultRingSize when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &FlightRecorder{ring: make([]Event, n)}
}

var std = NewFlightRecorder(DefaultRingSize)

// Recorder returns the process-wide flight recorder every obslog logger
// feeds.
func Recorder() *FlightRecorder { return std }

// Record appends one event, evicting the oldest when full.
func (r *FlightRecorder) Record(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.events.Add(1)
	r.mu.Lock()
	r.ring[r.next] = ev
	r.next = (r.next + 1) % len(r.ring)
	if r.size < len(r.ring) {
		r.size++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (r *FlightRecorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.size)
	for i := 0; i < r.size; i++ {
		out = append(out, r.ring[(r.next-r.size+i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Dump is the serialized form of one flight-recorder dump.
type Dump struct {
	PID      int       `json:"pid"`
	Process  string    `json:"process"`
	Reason   string    `json:"reason"`
	DumpedAt time.Time `json:"dumped_at"`
	Events   []Event   `json:"events"`
}

// WriteDump writes the ring as indented JSON to w.
func (r *FlightRecorder) WriteDump(w io.Writer, reason string) error {
	r.dumps.Add(1)
	d := Dump{
		PID:      os.Getpid(),
		Process:  processName(),
		Reason:   reason,
		DumpedAt: time.Now(),
		Events:   r.Snapshot(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// crashDir overrides the dump directory; see SetCrashDir.
var crashDir atomic.Pointer[string]

// SetCrashDir directs future crash dumps into dir instead of the default
// (the STRATA_FLIGHTREC_DIR environment variable, falling back to
// "bench-out" under the working directory). Tests point it at a temp dir
// so induced panics don't litter the source tree.
func SetCrashDir(dir string) { crashDir.Store(&dir) }

// CrashDir returns where crash dumps will be written.
func CrashDir() string {
	if d := crashDir.Load(); d != nil {
		return *d
	}
	if d := os.Getenv("STRATA_FLIGHTREC_DIR"); d != "" {
		return d
	}
	return "bench-out"
}

// DumpToDir writes the ring to dir/flightrec-<pid>.json and returns the
// path. The dump is written to a temp file and renamed into place, so the
// final path either holds a complete JSON document or does not exist: a
// process dying mid-dump (these dumps are written *during* crashes) leaves a
// stray .tmp at worst, never a torn flightrec-<pid>.json for a later
// artifact collector to choke on.
func (r *FlightRecorder) DumpToDir(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d.json", os.Getpid()))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if err := r.WriteDump(f, reason); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		_ = os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// Collect implements telemetry.Collector with the flight recorder's own
// series.
func (r *FlightRecorder) Collect(w *telemetry.Writer) {
	w.Counter("strata_flightrec_events_total",
		"Structured events recorded by the flight recorder ring.",
		float64(r.events.Load()))
	w.Counter("strata_flightrec_dumps_total",
		"Flight-recorder dumps written (panic, crashpoint, SIGQUIT).",
		float64(r.dumps.Load()))
	r.mu.Lock()
	size := r.size
	r.mu.Unlock()
	w.Gauge("strata_flightrec_ring_events",
		"Events currently retained in the flight-recorder ring.",
		float64(size))
}

// crashMu serializes crash dumps so two goroutines panicking together
// don't interleave output.
var crashMu sync.Mutex

// Crash records a crash-level event and dumps the flight recorder to
// stderr and to CrashDir()/flightrec-<pid>.json. It is the hook behind
// operator panic recovery, armed faultinject crashpoints, and SIGQUIT.
// Dump-write failures are reported on stderr but never mask the crash
// being recorded.
func Crash(reason string, kv ...string) {
	ev := Event{Level: "ERROR", Component: "flightrec", Msg: reason}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, EventAttr{Key: kv[i], Value: kv[i+1]})
	}
	std.Record(ev)

	crashMu.Lock()
	defer crashMu.Unlock()
	fmt.Fprintf(os.Stderr, "== STRATA FLIGHT RECORDER DUMP (reason: %s) ==\n", reason)
	if err := std.WriteDump(os.Stderr, reason); err != nil {
		fmt.Fprintf(os.Stderr, "obslog: stderr dump failed: %v\n", err)
	}
	path, err := std.DumpToDir(CrashDir(), reason)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obslog: file dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "== flight recorder written to %s ==\n", path)
}

// InstallSignalDump makes SIGQUIT dump the flight recorder (in addition to
// the Go runtime's own stack dump — the signal is re-raised with the
// default handler after dumping, preserving that behavior). Binaries call
// it once at startup; the returned stop function uninstalls the handler.
func InstallSignalDump() (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				Crash("SIGQUIT")
				signal.Reset(syscall.SIGQUIT)
				_ = syscall.Kill(os.Getpid(), syscall.SIGQUIT)
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

func processName() string {
	return filepath.Base(os.Args[0])
}
