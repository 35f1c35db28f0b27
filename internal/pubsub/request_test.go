package pubsub

import (
	"errors"
	"testing"
	"time"
)

func TestBrokerRequestReply(t *testing.T) {
	b := NewBroker()
	defer b.Close()

	// Responder: answers "cmd" requests with an ACK.
	sub, err := b.Subscribe("cmd")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := <-sub.C
		if string(req.Data) != "terminate" {
			t.Errorf("request data = %q", req.Data)
		}
		if err := b.Publish(req.Reply, []byte("ack")); err != nil {
			t.Errorf("reply error = %v", err)
		}
	}()

	resp, err := b.Request("cmd", []byte("terminate"), 5*time.Second)
	if err != nil {
		t.Fatalf("Request error = %v", err)
	}
	if string(resp.Data) != "ack" {
		t.Fatalf("response = %q", resp.Data)
	}
	<-done
}

func TestBrokerRequestTimeout(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	_, err := b.Request("nobody.home", []byte("x"), 30*time.Millisecond)
	if !errors.Is(err, ErrNoResponder) {
		t.Fatalf("Request error = %v, want ErrNoResponder", err)
	}
}
