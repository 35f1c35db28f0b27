package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"strata/internal/pubsub"
)

func TestCommandCodec(t *testing.T) {
	in := Command{
		Job:    "j1",
		Layer:  7,
		Action: ActionAdjust,
		Params: map[string]float64{"energy_scale": 0.9},
		Reason: "too many very_warm clusters",
	}
	data, err := EncodeCommand(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeCommand(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Job != in.Job || out.Layer != in.Layer || out.Action != in.Action ||
		out.Params["energy_scale"] != 0.9 || out.Reason != in.Reason {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := DecodeCommand([]byte("{not json")); err == nil {
		t.Fatal("DecodeCommand should reject garbage")
	}
}

// FuzzDecodeCommand: DecodeCommand parses bytes off a control subject.
// Whatever they hold, it returns an error or a command, never panics, and a
// command it accepts encodes into bytes that decode to the same command.
// An empty Params map and no map are the same command: EncodeCommand omits
// both.
func FuzzDecodeCommand(f *testing.F) {
	valid, err := EncodeCommand(Command{Job: "j1", Layer: 7, Action: ActionAdjust,
		Params: map[string]float64{"energy_scale": 0.9}, Reason: "too many very_warm clusters"})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid,
		valid[:len(valid)/2],
		nil,
		[]byte("{not json"),
		[]byte("null"),
		[]byte(`{"job":"j","layer":-1,"action":99,"params":{},"reason":""}`),
		[]byte(`{"params":{"a":1e308,"a":-0,"b":5e-324},"job":"\ud800\u00e9","extra":[1,{"x":null}]}`),
		[]byte(`{"layer":1.5}`),
		[]byte(`{"layer":99999999999999999999}`),
		[]byte(`{"params":{"a":"1"}}`),
		[]byte("{\"job\":\"\xff\xfe\"}"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCommand(data)
		if err != nil {
			return
		}
		enc, err := EncodeCommand(c)
		if err != nil {
			t.Fatalf("accepted %q as %+v, which does not encode: %v", data, c, err)
		}
		again, err := DecodeCommand(enc)
		if err != nil {
			t.Fatalf("accepted %q as %+v, whose encoding %q does not decode: %v", data, c, enc, err)
		}
		if again.Job != c.Job || again.Layer != c.Layer || again.Action != c.Action ||
			again.Reason != c.Reason || !maps.Equal(again.Params, c.Params) {
			t.Fatalf("accepted %q as %+v, which round-trips through %q to %+v", data, c, enc, again)
		}
	})
}

func TestActionString(t *testing.T) {
	cases := map[Action]string{
		ActionContinue:  "continue",
		ActionAdjust:    "adjust",
		ActionTerminate: "terminate",
		Action(42):      "action(42)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

func TestShareDuplicatesStream(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 5, nil))
	parts := fw.Share(src, 3)
	if len(parts) != 3 {
		t.Fatalf("Share returned %d refs", len(parts))
	}
	var counts [3]int
	for i, p := range parts {
		i := i
		fw.Deliver(fmt.Sprintf("out%d", i), p, func(EventTuple) error {
			counts[i]++
			return nil
		})
	}
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("consumer %d got %d tuples, want 5", i, c)
		}
	}
}

func TestShareOfOneReturnsInput(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 1, nil))
	parts := fw.Share(src, 1)
	if len(parts) != 1 || parts[0] != src {
		t.Fatal("Share(_, 1) should return the input unchanged")
	}
	fw.Deliver("out", parts[0], func(EventTuple) error { return nil })
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
}

func TestShareValidation(t *testing.T) {
	fw := newTestFramework(t)
	if out := fw.Share(nil, 2); out != nil {
		t.Fatal("Share(nil) should return nil")
	}
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestSharedStreamKeepsKindForDownstream(t *testing.T) {
	// A shared detect stream must still be accepted by CorrelateEvents.
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 4, nil))
	det := fw.DetectEvent("d", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(&EventTuple{})
	})
	parts := fw.Share(det, 2)
	cor := fw.CorrelateEvents("c", parts[0], 2, func(w CorrelateWindow, emit func(EventTuple) error) error {
		return emit(EventTuple{KV: map[string]any{"n": int64(len(w.Events))}})
	})
	results := 0
	fw.Deliver("expert", cor, func(EventTuple) error { results++; return nil })
	events := 0
	fw.Deliver("raw-events", parts[1], func(EventTuple) error { events++; return nil })
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	if results != 4 || events != 4 {
		t.Fatalf("results=%d events=%d, want 4/4", results, events)
	}
}

func TestControllerIssuesAcknowledgedCommands(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()

	port, err := ListenMachinePort(broker, "jobC")
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()

	fw := newTestFramework(t, WithBroker(broker))
	src := fw.AddSource("s", layersSource("jobC", 6, func(l int) map[string]any {
		return map[string]any{"severity": float64(l)}
	}))
	det := fw.DetectEvent("d", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(t)
	})
	var acks []Command
	var mu sync.Mutex
	fw.AttachController("ctl", det, func(t EventTuple) (Command, bool) {
		sev, _ := t.GetFloat("severity")
		switch {
		case sev >= 6:
			return Command{Action: ActionTerminate, Reason: "critical"}, true
		case sev >= 4:
			return Command{Action: ActionAdjust, Params: map[string]float64{"energy_scale": 0.9}}, true
		default:
			return Command{}, false
		}
	}, 5*time.Second, func(c Command, resp []byte) {
		mu.Lock()
		acks = append(acks, c)
		mu.Unlock()
		if string(resp) != "ack" {
			t.Errorf("ack payload = %q", resp)
		}
	})
	if err := runFW(t, fw); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acks) != 3 { // layers 4, 5 adjust; 6 terminate
		t.Fatalf("acknowledged %d commands, want 3: %+v", len(acks), acks)
	}
	if !port.Terminated() {
		t.Fatal("machine port did not record termination")
	}
	if v, ok := port.Param("energy_scale"); !ok || v != 0.9 {
		t.Fatalf("energy_scale = %v,%v", v, ok)
	}
	if got := len(port.Commands()); got != 3 {
		t.Fatalf("port recorded %d commands, want 3", got)
	}
}

func TestControllerUnacknowledgedCommandFailsPipeline(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	// No machine port listening: the request must time out and abort.
	fw := newTestFramework(t, WithBroker(broker))
	src := fw.AddSource("s", layersSource("jobX", 1, nil))
	det := fw.DetectEvent("d", src, func(t *EventTuple, emit func(*EventTuple) error) error {
		return emit(t)
	})
	fw.AttachController("ctl", det, func(t EventTuple) (Command, bool) {
		return Command{Action: ActionTerminate}, true
	}, 50*time.Millisecond, nil)
	err := runFW(t, fw)
	if !errors.Is(err, pubsub.ErrNoResponder) {
		t.Fatalf("Run() = %v, want wrapped ErrNoResponder", err)
	}
}

func TestControllerRequiresBroker(t *testing.T) {
	fw := newTestFramework(t)
	src := fw.AddSource("s", layersSource("j", 1, nil))
	fw.AttachController("ctl", src, func(EventTuple) (Command, bool) { return Command{}, false }, time.Second, nil)
	if err := fw.Err(); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("Err() = %v", err)
	}
}
