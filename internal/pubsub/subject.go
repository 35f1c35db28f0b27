// Package pubsub implements the publish/subscribe substrate STRATA uses for
// its Raw Data and Event connectors (the paper uses Apache Kafka; this
// package provides the same architectural role with an embeddable broker).
//
// Subjects are dot-separated token hierarchies ("strata.raw.ot.job42") with
// NATS-style wildcards in subscription patterns: '*' matches exactly one
// token, '>' matches one or more trailing tokens. Every subscription whose
// pattern matches receives each message; a full subscription blocks the
// publisher, up to the broker's slow-consumer timeout. A TCP server and its
// client, ReconnectConn (see server.go, reconnect.go), extend the broker
// across processes.
package pubsub

import (
	"errors"
	"fmt"
	"strings"
)

var (
	// ErrBadSubject is returned for empty subjects, empty tokens, or
	// wildcard characters in a publish subject.
	ErrBadSubject = errors.New("pubsub: invalid subject")

	// ErrBadPattern is returned for malformed subscription patterns (e.g.
	// '>' not in final position).
	ErrBadPattern = errors.New("pubsub: invalid pattern")

	// ErrClosed is returned when using a closed broker, subscription, or
	// connection.
	ErrClosed = errors.New("pubsub: closed")

	// ErrSlowConsumer is returned by a blocking-policy publish that cannot
	// deliver because a subscriber's buffer stayed full.
	ErrSlowConsumer = errors.New("pubsub: slow consumer")
)

// ValidateSubject checks a publish subject: non-empty dot-separated tokens,
// no wildcards.
func ValidateSubject(subject string) error {
	if subject == "" {
		return fmt.Errorf("%w: empty", ErrBadSubject)
	}
	for _, tok := range strings.Split(subject, ".") {
		if tok == "" {
			return fmt.Errorf("%w: empty token in %q", ErrBadSubject, subject)
		}
		if tok == "*" || tok == ">" {
			return fmt.Errorf("%w: wildcard in publish subject %q", ErrBadSubject, subject)
		}
	}
	return nil
}

// ValidatePattern checks a subscription pattern: non-empty tokens, '*'
// anywhere, '>' only as the final token.
func ValidatePattern(pattern string) error {
	if pattern == "" {
		return fmt.Errorf("%w: empty", ErrBadPattern)
	}
	toks := strings.Split(pattern, ".")
	for i, tok := range toks {
		switch {
		case tok == "":
			return fmt.Errorf("%w: empty token in %q", ErrBadPattern, pattern)
		case tok == ">" && i != len(toks)-1:
			return fmt.Errorf("%w: '>' must be last in %q", ErrBadPattern, pattern)
		}
	}
	return nil
}

// Match reports whether subject matches the subscription pattern. Both are
// assumed valid (see ValidateSubject, ValidatePattern).
func Match(pattern, subject string) bool {
	// Token by token without splitting: this runs per subscription on every
	// publish, so it must not allocate.
	for {
		tok, restP, moreP := strings.Cut(pattern, ".")
		if tok == ">" {
			return true // subject always has at least this one token left
		}
		stok, restS, moreS := strings.Cut(subject, ".")
		if tok != "*" && tok != stok {
			return false
		}
		if !moreP || !moreS {
			return moreP == moreS
		}
		pattern, subject = restP, restS
	}
}
