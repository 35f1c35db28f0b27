package pubsub

import (
	"fmt"
	"sync/atomic"
	"time"
)

// inboxPrefix namespaces the unique reply subjects of Request.
const inboxPrefix = "_INBOX"

// ErrNoResponder is returned by Request when no reply arrives in time
// (there is no responder, or it is too slow).
var ErrNoResponder = fmt.Errorf("pubsub: no response before timeout")

// inboxCounter makes in-process inbox subjects unique.
var inboxCounter atomic.Uint64

func nextInbox() string {
	return fmt.Sprintf("%s.%d", inboxPrefix, inboxCounter.Add(1))
}

// Request publishes data on subject with a unique reply inbox attached and
// waits for the first response, up to timeout. It is the synchronous
// command channel STRATA's feedback-loop control uses: the expert (or an
// automated controller) requests e.g. a parameter adjustment and the
// machine-side responder acknowledges.
func (b *Broker) Request(subject string, data []byte, timeout time.Duration) (Message, error) {
	inbox := nextInbox()
	sub, err := b.Subscribe(inbox, WithSubBuffer(1), withOverflow(dropNewest))
	if err != nil {
		return Message{}, err
	}
	defer sub.Unsubscribe()
	if err := b.PublishRequest(subject, inbox, data); err != nil {
		return Message{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg, ok := <-sub.C:
		if !ok {
			return Message{}, ErrClosed
		}
		return msg, nil
	case <-timer.C:
		return Message{}, fmt.Errorf("%w (subject %q after %v)", ErrNoResponder, subject, timeout)
	}
}
