package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"strata/internal/pubsub"
)

func newTestManager(t *testing.T) (*Manager, *pubsub.Broker) {
	t.Helper()
	broker := pubsub.NewBroker()
	m, err := NewManager(t.TempDir(), broker)
	if err != nil {
		t.Fatalf("NewManager error = %v", err)
	}
	t.Cleanup(func() {
		m.Close()
		broker.Close()
	})
	return m, broker
}

func TestManagerDeployAndDrain(t *testing.T) {
	m, _ := newTestManager(t)
	var got int
	p, err := m.Deploy("p1", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("j", 5, nil))
		fw.Deliver("out", src, func(EventTuple) error { got++; return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
	if got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
	if !p.Done() {
		t.Fatal("Done() should be true after Wait")
	}
	// A drained pipeline leaves the registry.
	if names := m.List(); len(names) != 0 {
		t.Fatalf("List() = %v, want empty", names)
	}
}

func TestManagerDuplicateName(t *testing.T) {
	m, _ := newTestManager(t)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	build := func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	}
	if _, err := m.Deploy("dup", build); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Deploy("dup", build); !errors.Is(err, ErrPipelineExists) {
		t.Fatalf("second Deploy = %v, want ErrPipelineExists", err)
	}
}

func TestManagerDecommission(t *testing.T) {
	m, _ := newTestManager(t)
	started := make(chan struct{})
	p, err := m.Deploy("endless", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if infos := m.List(); len(infos) != 1 || infos[0].Name != "endless" || infos[0].Status != StatusRunning {
		t.Fatalf("List() = %v", infos)
	}
	if err := m.Decommission("endless"); err != nil {
		t.Fatalf("Decommission() = %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("decommissioned pipeline Wait() = %v, want nil", err)
	}
	if err := m.Decommission("endless"); !errors.Is(err, ErrPipelineUnknown) {
		t.Fatalf("second Decommission = %v, want ErrPipelineUnknown", err)
	}
}

func TestManagerSharedStoreAcrossPipelines(t *testing.T) {
	m, _ := newTestManager(t)
	// Pipeline A writes a threshold; pipeline B (deployed later) reads it.
	pa, err := m.Deploy("writer", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("j", 1, nil))
		fw.Deliver("out", src, func(t EventTuple) error {
			return fw.StoreFloat("shared/threshold", 123)
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Wait(); err != nil {
		t.Fatal(err)
	}

	var got float64
	pb, err := m.Deploy("reader", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("j", 1, nil))
		fw.Deliver("out", src, func(t EventTuple) error {
			v, err := fw.GetFloat("shared/threshold")
			got = v
			return err
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 123 {
		t.Fatalf("shared value = %g, want 123", got)
	}
}

func TestManagerPipelinesOverlapViaBroker(t *testing.T) {
	m, broker := newTestManager(t)
	// Producer pipeline publishes raw tuples on its connector; a second,
	// independently deployed pipeline taps them — the paper's overlapping
	// pipelines.
	var seen int
	consumer, err := m.Deploy("consumer", func(fw *Framework) error {
		in := fw.AddBrokerSource("tap", RawSubject("src", "J"), 3)
		fw.Deliver("out", in, func(EventTuple) error { seen++; return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the subscription attach
	producer, err := m.Deploy("producer", func(fw *Framework) error {
		src := fw.AddSource("src", layersSource("J", 3, nil))
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Wait(); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("consumer saw %d tuples, want 3", seen)
	}
	_ = broker
}

func TestManagerBuildErrorRejected(t *testing.T) {
	m, _ := newTestManager(t)
	_, err := m.Deploy("bad", func(fw *Framework) error {
		src := fw.AddSource("s", layersSource("j", 1, nil))
		fw.CorrelateEvents("c", src, 5, func(CorrelateWindow, func(EventTuple) error) error { return nil })
		return nil
	})
	if !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Deploy(bad) = %v, want ErrBadPipeline", err)
	}
	_, err = m.Deploy("bad2", func(fw *Framework) error {
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("Deploy must surface build errors")
	}
}

func TestManagerCloseStopsEverything(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	m, err := NewManager(t.TempDir(), broker)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Deploy("endless", func(fw *Framework) error {
		src := fw.AddSource("s", func(ctx context.Context, emit func(EventTuple) error) error {
			<-ctx.Done()
			return ctx.Err()
		})
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline error after Close = %v", err)
	}
	if _, err := m.Deploy("late", func(fw *Framework) error { return nil }); err == nil {
		t.Fatal("Deploy after Close should fail")
	}
}

func TestLateDeployedPipelineReplaysRecordedData(t *testing.T) {
	// The mid-build deployment story: the raw connector is recorded into a
	// LogStore; a pipeline deployed after the build still processes every
	// layer by replaying the log.
	m, broker := newTestManager(t)
	store, err := pubsub.OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rec, err := pubsub.Record(broker, RawSubject("ot", "J"), store)
	if err != nil {
		t.Fatal(err)
	}

	// The build runs to completion with NO analysis pipeline attached.
	producer, err := m.Deploy("producer", func(fw *Framework) error {
		src := fw.AddSource("ot", layersSource("J", 7, func(l int) map[string]any {
			return map[string]any{"v": float64(l)}
		}))
		fw.Deliver("out", src, func(EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Wait(); err != nil {
		t.Fatal(err)
	}
	// Let the recorder drain, then stop it.
	deadline := time.Now().Add(5 * time.Second)
	for store.Len(RawSubject("ot", "J")) < 7 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}

	// A detection pipeline deployed AFTER the build replays everything.
	var layers []int
	late, err := m.Deploy("late-detector", func(fw *Framework) error {
		in := fw.AddReplaySource("replay", store, RawSubject("ot", "J"), false)
		det := fw.DetectEvent("d", in, func(t *EventTuple, emit func(*EventTuple) error) error {
			if v, _ := t.GetFloat("v"); v >= 3 {
				return emit(t)
			}
			return nil
		})
		fw.Deliver("out", det, func(t EventTuple) error {
			layers = append(layers, t.Layer)
			return nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(layers) != 5 { // layers 3..7
		t.Fatalf("late pipeline saw %d events, want 5 (%v)", len(layers), layers)
	}
	for i, l := range layers {
		if l != i+3 {
			t.Fatalf("replay out of order: %v", layers)
		}
	}
}

func TestAddReplaySourceValidation(t *testing.T) {
	fw := newTestFramework(t)
	fw.AddReplaySource("r", nil, "x", false)
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v", err)
	}
	// liveAfter follows the log with a cursor — no broker required.
	fw2 := newTestFramework(t)
	store, err := pubsub.OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fw2.AddReplaySource("r", store, "x", true)
	if err := fw2.Err(); err != nil {
		t.Fatalf("liveAfter without broker: Err() = %v", err)
	}
}

// TestReplayLiveHandoffNoDupNoGap hammers the replay→live transition: a
// writer appends records concurrently with the replay source catching up,
// so records land both in the final drain batches and in the tail-follow
// phase. Every offset must be delivered exactly once, in order.
func TestReplayLiveHandoffNoDupNoGap(t *testing.T) {
	store, err := pubsub.OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const subject = "strata.raw.hammer.j"
	const total = 2000
	append1 := func(layer int) {
		t.Helper()
		data, err := EncodeTuple(EventTuple{
			Job: "j", Layer: layer, TS: time.Unix(int64(layer), 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Append(subject, data); err != nil {
			t.Fatal(err)
		}
	}
	// Seed a prefix so replay has work before the live race begins.
	for i := 0; i < 200; i++ {
		append1(i)
	}

	fw := newTestFramework(t)
	var mu sync.Mutex
	var layers []int
	src := fw.AddReplaySource("r", store, subject, true)
	fw.Deliver("out", src, func(t EventTuple) error {
		mu.Lock()
		layers = append(layers, t.Layer)
		mu.Unlock()
		return nil
	})

	runErr := make(chan error, 1)
	go func() { runErr <- fw.Run(context.Background()) }()

	// Append the rest while the source drains and transitions to tailing.
	for i := 200; i < total; i++ {
		append1(i)
	}
	// Wait until everything arrived, then close the store to end the tail.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(layers)
		mu.Unlock()
		if n >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: delivered %d/%d", n, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(layers) != total {
		t.Fatalf("delivered %d records, want %d", len(layers), total)
	}
	for i, l := range layers {
		if l != i {
			t.Fatalf("offset %d delivered layer %d (dup or gap)", i, l)
		}
	}
}
