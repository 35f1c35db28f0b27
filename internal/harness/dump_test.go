package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strata/internal/obslog"
)

// TestReadDumpTornTail is the torn-tail recovery contract: a dump whose
// JSON was cut mid-write (the process died while dumping) is reported as
// errTornDump — a distinct, matchable condition — rather than wedging or
// masquerading as an I/O failure. collectArtifacts keys on this to log
// "evidence damaged" and keep going.
func TestReadDumpTornTail(t *testing.T) {
	dir := t.TempDir()
	r := obslog.NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(obslog.Event{Level: "WARN", Component: "pubsub", Msg: fmt.Sprintf("link down %d", i)})
	}
	path, err := r.DumpToDir(dir, "crash")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the tail off at several depths, including mid-string and just
	// past the header — every truncation must yield errTornDump.
	for _, frac := range []float64{0.9, 0.5, 0.1} {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%0.1f.json", frac))
		if err := os.WriteFile(torn, data[:int(float64(len(data))*frac)], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readDump(torn); !errors.Is(err, errTornDump) {
			t.Errorf("readDump(%0.1f of dump) = %v, want errTornDump", frac, err)
		}
	}

	// Garbage that is not JSON at all is also a torn dump, not a crash.
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("\x00\x01 not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDump(junk); !errors.Is(err, errTornDump) {
		t.Errorf("readDump(junk) = %v, want errTornDump", err)
	}
	if _, err := readDump(junk); err == nil || !strings.Contains(err.Error(), "junk.json") {
		t.Errorf("torn-dump error should name the file, got %v", err)
	}

	// A missing file is NOT a torn dump: the collector distinguishes "no
	// evidence" from "damaged evidence".
	if _, err := readDump(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("readDump(absent) = %v, want os.ErrNotExist", err)
	}
}
