package telemetry

import (
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := newTraceContext()
	s := tc.Traceparent()
	if len(s) != 55 {
		t.Fatalf("Traceparent() = %q (len %d), want the 55-char version-00 layout", s, len(s))
	}
	if !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") {
		t.Fatalf("Traceparent() = %q, want 00-...-01 (sampled)", s)
	}
	got, err := ParseTraceparent(s)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", s, err)
	}
	if got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
}

func TestTraceparentUnsampledFlag(t *testing.T) {
	tc := newTraceContext()
	tc.Sampled = false
	got, err := ParseTraceparent(tc.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled {
		t.Errorf("flags 00 parsed as sampled")
	}
	// Unknown flag bits beyond the sampled bit are tolerated (forward
	// compat); only bit 0 matters.
	s := tc.Traceparent()
	s = s[:53] + "03"
	got, err = ParseTraceparent(s)
	if err != nil {
		t.Fatalf("ParseTraceparent with extra flag bits: %v", err)
	}
	if !got.Sampled {
		t.Errorf("flags 03 parsed as unsampled")
	}
}

func TestTraceparentForwardCompatVersion(t *testing.T) {
	// The spec's forward-compat rule: an unknown (non-ff) version with the
	// version-00 field layout still parses.
	tc := newTraceContext()
	s := "01" + tc.Traceparent()[2:]
	got, err := ParseTraceparent(s)
	if err != nil {
		t.Fatalf("ParseTraceparent(version 01): %v", err)
	}
	if got != tc {
		t.Fatalf("version-01 parse = %+v, want %+v", got, tc)
	}
}

func TestTraceparentRejects(t *testing.T) {
	valid := newTraceContext().Traceparent()
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "00-abc"},
		{"no dashes", strings.ReplaceAll(valid, "-", "_")},
		{"bad version hex", "zz" + valid[2:]},
		{"forbidden version ff", "ff" + valid[2:]},
		{"bad trace id hex", valid[:3] + strings.Repeat("g", 32) + valid[35:]},
		{"bad span id hex", valid[:36] + strings.Repeat("g", 16) + valid[52:]},
		{"bad flags hex", valid[:53] + "zz"},
		{"all-zero trace id", valid[:3] + strings.Repeat("0", 32) + valid[35:]},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseTraceparent(tt.in); err == nil {
				t.Errorf("ParseTraceparent(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestContinueTraceLinksFragments(t *testing.T) {
	root := NewTrace(1, "source")
	rc := root.Context()
	if !rc.Valid() || !rc.Sampled {
		t.Fatalf("root context = %+v, want valid+sampled", rc)
	}

	next := ContinueTrace(rc, "downstream")
	nc := next.Context()
	if nc.TraceID != rc.TraceID {
		t.Errorf("continued fragment changed trace ID: %x vs %x", nc.TraceID, rc.TraceID)
	}
	if nc.SpanID == rc.SpanID {
		t.Errorf("continued fragment reused upstream span ID %x", nc.SpanID)
	}
	if !nc.Sampled {
		t.Errorf("continued fragment not sampled")
	}

	rootSnap := root.Snapshot()
	nextSnap := next.Snapshot()
	if nextSnap.TraceID != rootSnap.TraceID {
		t.Errorf("snapshot trace IDs differ: %s vs %s", nextSnap.TraceID, rootSnap.TraceID)
	}
	if nextSnap.ParentSpanID != rootSnap.SpanID {
		t.Errorf("ParentSpanID = %q, want upstream span %q", nextSnap.ParentSpanID, rootSnap.SpanID)
	}
	if rootSnap.ParentSpanID != "" {
		t.Errorf("root fragment has ParentSpanID %q, want none", rootSnap.ParentSpanID)
	}
	if nextSnap.Label != "downstream" {
		t.Errorf("label = %q, want downstream", nextSnap.Label)
	}
}

func TestFillRandomNeverZero(t *testing.T) {
	// Even the fallback path must never produce the forbidden all-zero ID;
	// here we just check the normal path mints distinct, valid contexts.
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tc := newTraceContext()
		if !tc.Valid() {
			t.Fatal("newTraceContext minted an all-zero trace ID")
		}
		s := tc.Traceparent()
		if seen[s] {
			t.Fatalf("duplicate context %s", s)
		}
		seen[s] = true
	}
}

// FuzzParseTraceparent feeds the wire-facing parser (the traceparent in
// opPubT/opMsgT headers comes straight off a socket): nothing may panic,
// and every accepted header must re-render to a canonical version-00 form
// that parses back to the same context.
func FuzzParseTraceparent(f *testing.F) {
	const (
		trace = "4bf92f3577b34da6a3ce929d0e0e4736"
		span  = "00f067aa0ba902b7"
	)
	valid := "00-" + trace + "-" + span + "-01"
	f.Add(valid)
	f.Add("ff" + valid[2:])                                      // forbidden version
	f.Add("00-" + strings.Repeat("0", 32) + "-" + span + "-01")  // all-zero trace id
	f.Add("00-" + trace + "-" + strings.Repeat("0", 16) + "-01") // all-zero span id
	f.Add("cc" + valid[2:] + "-what-the-future-holds")           // future version, suffix
	f.Add(valid[:54])                                            // one byte short
	f.Add("")
	f.Add("00-" + trace + "0-" + span + "-01")        // trace id one digit long
	f.Add(strings.ReplaceAll(valid, "-", "_"))        // wrong separators
	f.Add("00-" + trace + "-" + span + "-01" + "-xx") // v00 with a suffix
	f.Add(strings.ToUpper(valid))                     // upper-case hex
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an all-zero trace id", s)
		}
		canon := tc.Traceparent()
		again, err := ParseTraceparent(canon)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", canon, s, err)
		}
		if again != tc {
			t.Fatalf("round trip of %q: %+v, want %+v", s, again, tc)
		}
		if again.Traceparent() != canon {
			t.Fatalf("render not stable: %q then %q", canon, again.Traceparent())
		}
	})
}
