package pubsub

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"strata/internal/telemetry"
)

func render(t *testing.T, c telemetry.Collector) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Register(c)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := telemetry.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, text)
	}
	return text
}

func TestBrokerCollect(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub, err := b.Subscribe("jobs.>")
	if err != nil {
		t.Fatal(err)
	}
	small, err := b.Subscribe("jobs.>", WithSubBuffer(1), withOverflow(dropNewest))
	if err != nil {
		t.Fatal(err)
	}
	_ = small
	for i := 0; i < 3; i++ {
		if err := b.Publish("jobs.a", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Publish("jobs.b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Reply subjects collapse into one label.
	if err := b.Publish(inboxPrefix+".123", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(inboxPrefix+".456", []byte("r")); err != nil {
		t.Fatal(err)
	}

	text := render(t, b)
	for _, want := range []string{
		"strata_pubsub_published_total 6",
		`strata_pubsub_subject_published_total{subject="jobs.a"} 3`,
		`strata_pubsub_subject_published_total{subject="jobs.b"} 1`,
		`strata_pubsub_subject_published_total{subject="_INBOX.*"} 2`,
		`strata_pubsub_subject_delivered_total{subject="jobs.a"} 6`,
		"strata_pubsub_subscriptions 2",
		// The 1-slot DropNewest sub kept 1 of its 4 jobs.* messages.
		"strata_pubsub_dropped_total 3",
		`pattern="jobs.>"`,
		"strata_pubsub_sub_capacity",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	// The blocking sub has all 4 matching messages pending.
	if !strings.Contains(text, fmt.Sprintf("strata_pubsub_sub_pending{id=\"%d\",pattern=\"jobs.>\"} 4", subID(sub))) {
		t.Errorf("missing pending depth for blocking sub\n---\n%s", text)
	}
}

// subID exposes the unexported id for test assertions.
func subID(s *Subscription) uint64 { return s.id }

func TestSubjectCardinalityBounded(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for i := 0; i < maxSubjectLabels+40; i++ {
		if err := b.Publish(fmt.Sprintf("s.%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := b.subjects.snapshot()
	if len(snap) > maxSubjectLabels+1 {
		t.Fatalf("subject table grew to %d entries, cap is %d (+overflow)", len(snap), maxSubjectLabels)
	}
	other, ok := snap[overflowSubject]
	if !ok || other.published != 40 {
		t.Fatalf("overflow bucket = %+v (present=%v), want 40 published", other, ok)
	}
}

func TestServerAndClientCollect(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc, err := DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Dial returns once the kernel completes the handshake, which can be
	// before the accept loop has taken the connection and counted it. A
	// PONG comes from the connection's serve loop, which starts after both.
	if err := rc.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	text := render(t, srv)
	for _, want := range []string{
		"strata_pubsub_server_accepted_total 1",
		"strata_pubsub_server_connections 1",
		"strata_pubsub_server_reaped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("server exposition missing %q\n---\n%s", want, text)
		}
	}

	text = render(t, rc)
	for _, want := range []string{
		"strata_pubsub_client_connected 1",
		"strata_pubsub_client_reconnects_total 0",
		"strata_pubsub_client_pending 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("client exposition missing %q\n---\n%s", want, text)
		}
	}
}
