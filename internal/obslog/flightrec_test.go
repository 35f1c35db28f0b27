package obslog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strata/internal/telemetry"
)

func TestFlightRecorderRingEviction(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(Event{Msg: fmt.Sprintf("ev-%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		if want := fmt.Sprintf("ev-%d", i+2); ev.Msg != want {
			t.Errorf("snapshot[%d] = %q, want %q (oldest-first, oldest two evicted)", i, ev.Msg, want)
		}
	}
	if r.events.Load() != 6 {
		t.Errorf("events counter = %d, want 6", r.events.Load())
	}
}

func TestWriteDumpShape(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(Event{Level: "INFO", Component: "core", Msg: "checkpoint committed",
		Attrs: []EventAttr{{Key: "epoch", Value: "3"}}})
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, "test-reason"); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.PID != os.Getpid() || d.Reason != "test-reason" || d.DumpedAt.IsZero() {
		t.Errorf("dump header = %+v", d)
	}
	if len(d.Events) != 1 || d.Events[0].Msg != "checkpoint committed" {
		t.Errorf("dump events = %+v", d.Events)
	}
	if r.dumps.Load() != 1 {
		t.Errorf("dumps counter = %d, want 1", r.dumps.Load())
	}
}

func TestCrashDirPrecedence(t *testing.T) {
	t.Setenv("STRATA_FLIGHTREC_DIR", "")
	old := crashDir.Load()
	crashDir.Store(nil)
	t.Cleanup(func() { crashDir.Store(old) })

	if got := CrashDir(); got != "bench-out" {
		t.Errorf("default CrashDir = %q, want bench-out", got)
	}
	t.Setenv("STRATA_FLIGHTREC_DIR", "/env/dir")
	if got := CrashDir(); got != "/env/dir" {
		t.Errorf("env CrashDir = %q, want /env/dir", got)
	}
	SetCrashDir("/set/dir")
	if got := CrashDir(); got != "/set/dir" {
		t.Errorf("SetCrashDir CrashDir = %q, want /set/dir (overrides env)", got)
	}
}

func TestCrashWritesDumpFile(t *testing.T) {
	dir := t.TempDir()
	old := crashDir.Load()
	SetCrashDir(dir)
	t.Cleanup(func() { crashDir.Store(old) })

	L("core").Info("checkpoint committed", "epoch", "7")
	Crash("injected for test", "crashpoint", "detect.layer.9")

	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d.json", os.Getpid()))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("crash dump not written: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("crash dump is not JSON: %v", err)
	}
	if d.Reason != "injected for test" {
		t.Errorf("dump reason = %q", d.Reason)
	}
	var sawCheckpoint, sawCrash bool
	for _, ev := range d.Events {
		if ev.Msg == "checkpoint committed" {
			sawCheckpoint = true
		}
		if ev.Component == "flightrec" && ev.Msg == "injected for test" {
			sawCrash = true
			if len(ev.Attrs) != 1 || ev.Attrs[0].Key != "crashpoint" || ev.Attrs[0].Value != "detect.layer.9" {
				t.Errorf("crash event attrs = %+v", ev.Attrs)
			}
		}
	}
	if !sawCheckpoint || !sawCrash {
		t.Errorf("dump missing events: checkpoint=%v crash=%v", sawCheckpoint, sawCrash)
	}
}

// TestFlightRecorderExposition registers the global recorder on a telemetry
// registry and checks the strata_flightrec_* series render as valid
// exposition.
func TestFlightRecorderExposition(t *testing.T) {
	Recorder().Record(Event{Msg: "seed the ring"})
	reg := telemetry.NewRegistry()
	reg.Register(Recorder())

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, body)
	}
	for _, want := range []string{
		"strata_flightrec_events_total",
		"strata_flightrec_dumps_total",
		"strata_flightrec_ring_events",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, body)
		}
	}
}

// TestDumpToDirIsAtomic: the dump lands via temp-file-plus-rename, so the
// final flightrec-<pid>.json is complete the instant it exists and no .tmp
// residue survives a successful dump.
func TestDumpToDirIsAtomic(t *testing.T) {
	dir := t.TempDir()
	r := NewFlightRecorder(8)
	r.Record(Event{Level: "INFO", Component: "core", Msg: "epoch sealed"})

	path, err := r.DumpToDir(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, fmt.Sprintf("flightrec-%d.json", os.Getpid())); path != want {
		t.Errorf("dump path = %q, want %q", path, want)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind after successful dump: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("fresh dump does not parse: %v", err)
	}
	if len(d.Events) != 1 || d.Events[0].Msg != "epoch sealed" {
		t.Errorf("dump events = %+v", d.Events)
	}
}
