package pubsub

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"strata/internal/testseed"
)

func TestValidateSubject(t *testing.T) {
	good := []string{"a", "a.b", "strata.raw.ot.job42"}
	for _, s := range good {
		if err := ValidateSubject(s); err != nil {
			t.Errorf("ValidateSubject(%q) = %v, want nil", s, err)
		}
	}
	bad := []string{"", ".", "a.", ".a", "a..b", "a.*", ">", "a.>"}
	for _, s := range bad {
		if err := ValidateSubject(s); !errors.Is(err, ErrBadSubject) {
			t.Errorf("ValidateSubject(%q) = %v, want ErrBadSubject", s, err)
		}
	}
}

func TestValidatePattern(t *testing.T) {
	good := []string{"a", "a.*", "*.b", "a.>", ">", "*.*.c"}
	for _, p := range good {
		if err := ValidatePattern(p); err != nil {
			t.Errorf("ValidatePattern(%q) = %v, want nil", p, err)
		}
	}
	bad := []string{"", "a..b", ">.a", "a.>.b"}
	for _, p := range bad {
		if err := ValidatePattern(p); !errors.Is(err, ErrBadPattern) {
			t.Errorf("ValidatePattern(%q) = %v, want ErrBadPattern", p, err)
		}
	}
}

func TestMatch(t *testing.T) {
	cases := []struct {
		pattern, subject string
		want             bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.c", false},
		{"a.b", "a.b.c", false},
		{"a.*", "a.b", true},
		{"a.*", "a.b.c", false},
		{"*.b", "a.b", true},
		{"a.>", "a.b", true},
		{"a.>", "a.b.c.d", true},
		{"a.>", "a", false},
		{">", "a", true},
		{">", "a.b.c", true},
		{"*.*", "a.b", true},
		{"*.*", "a", false},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.subject); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.subject, got, c.want)
		}
	}
}

func recvOne(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("subscription channel closed unexpectedly")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	panic("unreachable")
}

func TestBrokerPublishSubscribe(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub, err := b.Subscribe("events.*")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("events.hot", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sub.C)
	if m.Subject != "events.hot" || string(m.Data) != "x" || m.Seq != 1 {
		t.Fatalf("got %+v", m)
	}
	// Non-matching subject is not delivered.
	if err := b.Publish("other.hot", []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C:
		t.Fatalf("unexpected delivery %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestBrokerFanOut(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	var subs []*Subscription
	for i := 0; i < 5; i++ {
		s, err := b.Subscribe("x")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := b.Publish("x", []byte("fan")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if m := recvOne(t, s.C); string(m.Data) != "fan" {
			t.Fatalf("sub %d got %q", i, m.Data)
		}
	}
	st := b.Stats()
	if st.Published != 1 || st.Delivered != 5 || st.Subscriptions != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBrokerUnsubscribe(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub, err := b.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	sub.Unsubscribe()
	if err := b.Publish("x", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel should be closed after Unsubscribe")
	}
	sub.Unsubscribe() // idempotent
}

// TestBrokerHasSubscriber: the answer follows the live subscription set —
// patterns must match, and an unsubscribe is seen at once — without
// allocating.
func TestBrokerHasSubscriber(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if b.HasSubscriber("strata.raw.ot.j1") {
		t.Fatal("empty broker claims a subscriber")
	}
	plain, err := b.Subscribe("strata.raw.*.j1")
	if err != nil {
		t.Fatal(err)
	}
	member, err := b.Subscribe("strata.events.>")
	if err != nil {
		t.Fatal(err)
	}
	for subject, want := range map[string]bool{
		"strata.raw.ot.j1":      true,
		"strata.raw.ot.j2":      false,
		"strata.raw.ot.j1.more": false,
		"strata.events.d.j2":    true,
		"strata.results.c.j1":   false,
	} {
		if got := b.HasSubscriber(subject); got != want {
			t.Errorf("HasSubscriber(%q) = %v, want %v", subject, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { b.HasSubscriber("strata.results.c.j1") }); n != 0 {
		t.Errorf("HasSubscriber allocated %v times", n)
	}
	plain.Unsubscribe()
	member.Unsubscribe()
	if b.HasSubscriber("strata.raw.ot.j1") || b.HasSubscriber("strata.events.d.j2") {
		t.Fatal("unsubscribed patterns still count as listeners")
	}
}

func TestBrokerDropNewest(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub, err := b.Subscribe("x", WithSubBuffer(2), withOverflow(dropNewest))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Publish("x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer keeps the 2 oldest: 0, 1.
	if m := recvOne(t, sub.C); m.Data[0] != 0 {
		t.Fatalf("first = %d, want 0", m.Data[0])
	}
	if m := recvOne(t, sub.C); m.Data[0] != 1 {
		t.Fatalf("second = %d, want 1", m.Data[0])
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
}

func TestBrokerBlockBackpressure(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub, err := b.Subscribe("x", WithSubBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := b.Publish("x", []byte{byte(i)}); err != nil {
				t.Errorf("Publish error = %v", err)
				return
			}
		}
	}()
	// Drain slowly; all 10 messages must arrive in order.
	for i := 0; i < 10; i++ {
		m := recvOne(t, sub.C)
		if m.Data[0] != byte(i) {
			t.Fatalf("message %d = %d (blocking policy must not drop/reorder)", i, m.Data[0])
		}
	}
	<-done
}

func TestBrokerClosedOps(t *testing.T) {
	b := NewBroker()
	sub, err := b.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription should be closed after broker Close")
	}
	if err := b.Publish("x", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe("y"); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after close = %v, want ErrClosed", err)
	}
	if err := b.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

func TestBrokerConcurrentPublishers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub, err := b.Subscribe("load.>", WithSubBuffer(10000))
	if err != nil {
		t.Fatal(err)
	}
	const publishers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Publish(fmt.Sprintf("load.p%d", p), []byte("m")); err != nil {
					t.Errorf("Publish error = %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	got := 0
	seqs := map[uint64]bool{}
	for {
		select {
		case m := <-sub.C:
			got++
			if seqs[m.Seq] {
				t.Fatalf("duplicate sequence %d", m.Seq)
			}
			seqs[m.Seq] = true
			continue
		default:
		}
		break
	}
	if got != publishers*each {
		t.Fatalf("received %d, want %d", got, publishers*each)
	}
}

// TestMatchPropertyExactSubjectsAlwaysMatchThemselves: any valid wildcard-free
// pattern matches exactly itself among generated subjects.
func TestMatchPropertySelfMatch(t *testing.T) {
	tokens := []string{"a", "b", "c", "dd"}
	gen := func(seed int64, depth uint8) string {
		n := int(depth%4) + 1
		s := ""
		x := seed
		for i := 0; i < n; i++ {
			if x < 0 {
				x = -x
			}
			s += tokens[x%int64(len(tokens))]
			if i != n-1 {
				s += "."
			}
			x = x/7 + 13
		}
		return s
	}
	prop := func(seed int64, depth uint8, seed2 int64, depth2 uint8) bool {
		s1 := gen(seed, depth)
		s2 := gen(seed2, depth2)
		if Match(s1, s1) != true {
			return false
		}
		// Without wildcards, match is just equality.
		return Match(s1, s2) == (s1 == s2)
	}
	if err := quick.Check(prop, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// matchBySplitting is the matcher as specified (token slices compared index
// by index): the reference the allocation-free Match is checked against.
func matchBySplitting(pattern, subject string) bool {
	p := strings.Split(pattern, ".")
	s := strings.Split(subject, ".")
	for i, tok := range p {
		if tok == ">" {
			return len(s) >= i+1
		}
		if i >= len(s) {
			return false
		}
		if tok != "*" && tok != s[i] {
			return false
		}
	}
	return len(s) == len(p)
}

// TestMatchAgreesWithReference enumerates every pattern of up to four tokens
// over {a, b, *, >-last} against every subject of up to four tokens over
// {a, b}.
func TestMatchAgreesWithReference(t *testing.T) {
	var build func(alphabet []string, depth int, prefix string, out *[]string)
	build = func(alphabet []string, depth int, prefix string, out *[]string) {
		for _, tok := range alphabet {
			s := prefix + tok
			*out = append(*out, s)
			if depth > 1 && tok != ">" {
				build(alphabet, depth-1, s+".", out)
			}
		}
	}
	var patterns, subjects []string
	build([]string{"a", "b", "*", ">"}, 4, "", &patterns)
	build([]string{"a", "b"}, 4, "", &subjects)
	for _, p := range patterns {
		for _, s := range subjects {
			if got, want := Match(p, s), matchBySplitting(p, s); got != want {
				t.Fatalf("Match(%q, %q) = %v, reference says %v", p, s, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Match("strata.raw.*.>", "strata.raw.ot.job.x") }); n != 0 {
		t.Fatalf("Match allocated %v times", n)
	}
}
