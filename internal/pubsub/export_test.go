package pubsub

import "time"

// Test seams for knobs the product keeps at their defaults.

// withServerLogf replaces the server's diagnostic logger.
func withServerLogf(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// withFlushInterval sets the server-side cork interval (0 flushes every
// frame on write).
func withFlushInterval(d time.Duration) ServerOption {
	return func(s *Server) { s.flushInterval = d }
}

// withHeartbeat sets the client liveness probe's interval and pong timeout.
func withHeartbeat(interval, timeout time.Duration) ReconnectOption {
	return func(c *reconnectConfig) { c.heartbeat, c.pingTimeout = interval, timeout }
}

// withPendingLimit caps the publishes buffered while disconnected.
func withPendingLimit(n int) ReconnectOption {
	return func(c *reconnectConfig) { c.pendingLimit = n }
}

// withForwardOptions gives the forwarder subscriptions of SUB frames options
// chosen by pattern (buffer size, overflow policy), which the wire does not
// carry.
func withForwardOptions(f func(pattern string) []SubOption) ServerOption {
	return func(s *Server) { s.forwardOpts = f }
}
