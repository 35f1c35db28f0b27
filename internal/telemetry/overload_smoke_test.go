// Exposition smoke test for the overload-protection metrics (DESIGN.md §11):
// a deployment that shed expired tuples and suppressed an expired durable
// effect must serve all of it as a valid Prometheus exposition — and none of
// the series of the removed overload mechanisms (subject quotas, the client
// circuit breaker, pending-buffer drop policies).
package telemetry_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"strata/internal/core"
	"strata/internal/kvstore"
	"strata/internal/pubsub"
	"strata/internal/telemetry"
)

func TestOverloadMetricsExposition(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	m, err := core.NewManager(t.TempDir(), broker,
		core.WithOverloadControl(core.OverloadConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	base := time.UnixMicro(1_000_000)
	// Completed pipelines leave the manager's collection, so both sources
	// emit their load and then park on release: the scrape below observes a
	// live deployment.
	release := make(chan struct{})
	park := func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	// Pipeline 1: shed-late engaged, every tuple long expired — the whole
	// offered load is shed at the gates (reason "expired").
	shed, err := m.Deploy("shedder", func(fw *core.Framework) error {
		fw.Query().Overload().SetShedLate(true, 0)
		src := fw.AddSource("src", func(ctx context.Context, emit func(core.EventTuple) error) error {
			for i := 1; i <= 10; i++ {
				err := emit(core.EventTuple{
					TS:       base.Add(time.Duration(i) * time.Millisecond),
					Job:      "j",
					Layer:    i,
					Deadline: time.Now().Add(-time.Hour),
				})
				if err != nil {
					return err
				}
			}
			park(ctx)
			return nil
		})
		fw.Deliver("out", src, func(core.EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pipeline 2: no shedding — an expired tuple travels to the durable sink
	// and is suppressed there (the deadline terminus).
	durable, err := m.Deploy("terminus", func(fw *core.Framework) error {
		src := fw.AddSource("src", func(ctx context.Context, emit func(core.EventTuple) error) error {
			err := emit(core.EventTuple{
				TS:       base,
				Job:      "j",
				Layer:    1,
				Deadline: time.Now().Add(-time.Hour),
			})
			park(ctx)
			return err
		})
		fw.DeliverDurable("out", src, func(seq uint64, tu core.EventTuple, b *kvstore.Batch) error {
			b.Put(fmt.Appendf(nil, "out/%d", seq), nil)
			return nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		for _, p := range []*core.Pipeline{shed, durable} {
			if err := p.Wait(); err != nil {
				t.Errorf("pipeline %s ended with %v", p.Name(), err)
			}
		}
	}()

	// A healthy client link: its collector must expose the link gauges
	// and nothing of the removed drop policies or circuit breaker.
	srv, err := pubsub.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := pubsub.DialReconnect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	reg := telemetry.NewRegistry()
	reg.Register(m)
	reg.Register(broker)
	reg.Register(rc)
	gather := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	markers := map[string]string{
		"controller level gauge":    "strata_overload_level",
		"controller pressure gauge": "strata_overload_pressure",
		"shed counter (expired)":    `strata_stream_op_shed_total{op="src",query="shedder",reason="expired"} 10`,
		"expired durable effects":   `strata_overload_expired_effects_total{pipeline="terminus",sink="out"} 1`,
		"slow-consumer evictions":   "strata_pubsub_slow_consumers_evicted_total 0",
		"client pending gauge":      "strata_pubsub_client_pending 0",
	}
	complete := func(text string) bool {
		for _, marker := range markers {
			if !strings.Contains(text, marker) {
				return false
			}
		}
		return true
	}
	// The sheds and the durable suppression race the first scrape; poll
	// until the pipelines' counters have landed.
	text := gather()
	for deadline := time.Now().Add(10 * time.Second); !complete(text); text = gather() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := telemetry.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, text)
	}
	for what, marker := range markers {
		if !strings.Contains(text, marker) {
			t.Errorf("/metrics missing %s: %q\n---\n%s", what, marker, text)
		}
	}
	for _, gone := range []string{
		"strata_pubsub_over_quota_total",
		"strata_pubsub_client_pending_dropped_total",
		"strata_pubsub_client_breaker_state",
		"strata_pubsub_client_breaker_opened_total",
		"strata_pubsub_client_breaker_fast_fails_total",
		`reason="overflow"`,
	} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics still serves removed series %q", gone)
		}
	}
}
