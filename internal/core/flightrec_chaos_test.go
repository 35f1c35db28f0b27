package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"strata/internal/obslog"
)

// TestChaosFlightRecorder kills a checkpointed pipeline via an armed
// crashpoint and checks the crash left a flight-recorder dump containing
// both the last committed checkpoint epoch and the crashpoint event — the
// evidence an operator needs after a `make chaos` kill.
func TestChaosFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	obslog.SetCrashDir(dir)
	t.Cleanup(func() { obslog.SetCrashDir(os.TempDir()) })

	r := newChaosRig(t)
	r.appendLayers(t, 1, 10)

	p, err := r.mgr.Deploy("chaos", r.build,
		WithCheckpointInterval(time.Hour),
		WithRestartPolicy(RestartOnFailure),
		withMaxRestarts(3),
		WithRestartBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r.waitResults(t, 10)
	if err := r.mgr.CheckpointNow("chaos"); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}

	r.cps.Arm("detect.layer.12", 1, errors.New("injected crash"))
	crashed := make(chan struct{})
	go func() {
		for r.cps.Fired("detect.layer.12") == 0 {
			time.Sleep(time.Millisecond)
		}
		r.cps.Disarm("detect.layer.12")
		close(crashed)
	}()
	r.appendLayers(t, 11, 14)
	select {
	case <-crashed:
	case <-time.After(15 * time.Second):
		t.Fatal("injected crash never fired")
	}
	r.waitResults(t, 14)
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d.json", os.Getpid()))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("crashpoint left no flight-recorder dump: %v", err)
	}
	var dump obslog.Dump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if dump.Reason != "crashpoint fired" {
		t.Errorf("dump reason = %q, want crashpoint fired", dump.Reason)
	}

	attr := func(ev obslog.Event, key string) (string, bool) {
		for _, a := range ev.Attrs {
			if a.Key == key {
				return a.Value, true
			}
		}
		return "", false
	}
	var checkpointEpoch, crashpoint string
	for _, ev := range dump.Events {
		if ev.Component == "core" && ev.Msg == "checkpoint committed" {
			if e, ok := attr(ev, "epoch"); ok {
				checkpointEpoch = e
			}
		}
		if ev.Component == "flightrec" && ev.Msg == "crashpoint fired" {
			crashpoint, _ = attr(ev, "crashpoint")
		}
	}
	if checkpointEpoch != "1" {
		t.Errorf("dump checkpoint epoch = %q, want 1", checkpointEpoch)
	}
	if crashpoint != "detect.layer.12" {
		t.Errorf("dump crashpoint = %q, want detect.layer.12", crashpoint)
	}
}
