package stream

import "errors"

var (
	// ErrQueryRunning is returned when a query is mutated or started while
	// it is already running.
	ErrQueryRunning = errors.New("stream: query already running")

	// ErrStreamConsumed is recorded when a builder attaches a second
	// consumer to a stream. Streams are single-consumer; use Fanout to
	// duplicate a stream.
	ErrStreamConsumed = errors.New("stream: stream already has a consumer")

	// ErrNilUDF is recorded when a builder receives a nil user function.
	ErrNilUDF = errors.New("stream: nil user-defined function")

	// ErrDuplicateName is recorded when two operators in the same query
	// share a name.
	ErrDuplicateName = errors.New("stream: duplicate operator name")

	// ErrCrossQuery is recorded when a stream created by one query is used
	// as the input of an operator added to a different query.
	ErrCrossQuery = errors.New("stream: stream belongs to a different query")

	// ErrBadWindow is recorded for an Aggregate over fewer than one pane
	// or a Join with a negative window.
	ErrBadWindow = errors.New("stream: window size out of range")

	// ErrQueryFinished is returned by Run when the query has already
	// completed a run. Queries are one-shot: channels are closed on drain,
	// so a finished query cannot be restarted. Build a new Query instead.
	ErrQueryFinished = errors.New("stream: query already finished")

	// ErrNoOperators is returned by Run when the query has no operators.
	ErrNoOperators = errors.New("stream: query has no operators")

	// ErrDanglingStream is returned by Run when a stream has a producer but
	// no consumer; every stream must end in a sink or another operator.
	ErrDanglingStream = errors.New("stream: stream has no consumer")

	// ErrPanic wraps a panic recovered inside an operator: a panicking UDF
	// fails its own query with an error instead of crashing the process, so
	// co-deployed pipelines keep running. Errors.Is(err, ErrPanic) detects
	// it; the error text carries the panic value and stack.
	ErrPanic = errors.New("stream: operator panicked")
)
