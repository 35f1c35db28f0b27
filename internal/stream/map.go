package stream

// MapFunc transforms one input tuple into exactly one output tuple.
type MapFunc[In, Out any] func(In) (Out, error)

// FlatMapFunc transforms one input tuple into zero or more output tuples by
// calling emit once per output. It must not retain emit after returning.
type FlatMapFunc[In, Out any] func(in In, emit Emit[Out]) error

// FilterFunc decides whether a tuple is forwarded (true) or dropped (false).
type FilterFunc[T any] func(T) (bool, error)

// Map registers a one-to-one stateless operator.
func Map[In, Out any](q *Query, name string, in *Stream[In], fn MapFunc[In, Out], opts ...OpOption) *Stream[Out] {
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return newStream[Out](q, name, 0)
	}
	return FlatMap(q, name, in, func(v In, emit Emit[Out]) error {
		out, err := fn(v)
		if err != nil {
			return err
		}
		return emit(out)
	}, opts...)
}

// Filter registers a stateless operator that forwards only tuples for which
// fn returns true.
func Filter[T any](q *Query, name string, in *Stream[T], fn FilterFunc[T], opts ...OpOption) *Stream[T] {
	if fn == nil {
		q.recordErr(ErrNilUDF)
		return newStream[T](q, name, 0)
	}
	return FlatMap(q, name, in, func(v T, emit Emit[T]) error {
		keep, err := fn(v)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
		return emit(v)
	}, opts...)
}

// FlatMap registers a one-to-many stateless operator: a Process with no
// end-of-stream hook and no checkpointed state. Map and Filter are
// implemented on top of it.
func FlatMap[In, Out any](q *Query, name string, in *Stream[In], fn FlatMapFunc[In, Out], opts ...OpOption) *Stream[Out] {
	return Process(q, name, in, fn, nil, nil, opts...)
}
