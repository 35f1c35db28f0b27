package stream

import (
	"context"
	"fmt"
	"sync"
)

// HashFunc assigns a tuple to a shuffle partition. Equal hashes land on the
// same branch, so state that must stay together (e.g. all portions of one
// specimen) should hash on the corresponding key.
type HashFunc[T any] func(T) uint64

// Shuffle registers a 1→n splitter that routes each tuple to branch
// hash(t) % n. Each returned stream preserves the input's timestamp order
// (it is a subsequence of an ordered stream). Each input chunk is
// partitioned into at most one sub-chunk per branch, so a chunk costs at
// most n sends regardless of its size.
func Shuffle[T any](q *Query, name string, in *Stream[T], n int, hash HashFunc[T], opts ...OpOption) []*Stream[T] {
	o := applyOpts(opts)
	outs := make([]*Stream[T], n)
	chs := make([]chan []T, n)
	for i := range outs {
		outs[i] = newStream[T](q, fmt.Sprintf("%s.%d", name, i), o.buffer)
		chs[i] = outs[i].ch
	}
	in.claim(q, name)
	if hash == nil {
		q.recordErr(ErrNilUDF)
		return outs
	}
	if n <= 0 {
		q.recordErr(fmt.Errorf("stream: shuffle %q: branch count must be positive, got %d", name, n))
		return outs
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, chs...)
	q.addOperator(&shuffleOp[T]{
		name: name, in: in.ch, outs: chs, hash: hash, g: q.qz.newGuard(), stats: stats,
		pool: chunkPoolFor[T](), recycle: !in.shared,
	})
	return outs
}

type shuffleOp[T any] struct {
	name    string
	in      chan []T
	outs    []chan []T
	hash    HashFunc[T]
	g       *opGuard
	stats   *OpStats
	pool    *sync.Pool
	recycle bool
}

func (s *shuffleOp[T]) opName() string { return s.name }

func (s *shuffleOp[T]) run(ctx context.Context) (err error) {
	defer func() {
		s.g.qz.waitUnpaused()
		for _, ch := range s.outs {
			close(ch)
		}
	}()
	defer s.g.exit(&err)
	defer recoverPanic(&err)
	qz := s.g.qz
	n := uint64(len(s.outs))
	parts := make([][]T, n)
	return drain(ctx, s.g, s.in, func(chunk []T) error {
		s.stats.addIn(int64(len(chunk)))
		// Partition the chunk, preserving input order within each branch,
		// then send each non-empty sub-chunk. Sub-chunks come from the pool
		// (sized so one never grows): the downstream consumer owns them. The
		// input chunk is fully copied out, so it can be recycled before the
		// sends.
		for i := range chunk {
			idx := s.hash(chunk[i]) % n
			if parts[idx] == nil {
				parts[idx] = getChunk[T](s.pool, len(chunk))
			}
			parts[idx] = append(parts[idx], chunk[i])
		}
		if s.recycle {
			recycleChunk(s.pool, chunk)
		}
		for i, p := range parts {
			if len(p) == 0 {
				continue
			}
			parts[i] = nil
			s.stats.observeBatch(len(p))
			if err := sendChunk(qz, ctx, s.outs[i], p); err != nil {
				return err
			}
			s.stats.addOut(int64(len(p)))
		}
		return nil
	})
}

// Fanout registers a 1→n duplicator: every input tuple is sent to all n
// output streams. It is how one stream feeds several downstream operators
// (streams are otherwise single-consumer). Chunks are forwarded by
// reference — consumers must treat them as read-only, which all engine
// operators do — so the output streams are marked shared and their
// consumers leave chunks to the collector instead of recycling them.
func Fanout[T any](q *Query, name string, in *Stream[T], n int, opts ...OpOption) []*Stream[T] {
	o := applyOpts(opts)
	outs := make([]*Stream[T], n)
	chs := make([]chan []T, n)
	for i := range outs {
		outs[i] = newStream[T](q, fmt.Sprintf("%s.%d", name, i), o.buffer)
		outs[i].shared = true
		chs[i] = outs[i].ch
	}
	in.claim(q, name)
	if n <= 0 {
		q.recordErr(fmt.Errorf("stream: fanout %q: branch count must be positive, got %d", name, n))
		return outs
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, chs...)
	q.addOperator(&fanoutOp[T]{name: name, in: in.ch, outs: chs, g: q.qz.newGuard(), stats: stats})
	return outs
}

type fanoutOp[T any] struct {
	name  string
	in    chan []T
	outs  []chan []T
	g     *opGuard
	stats *OpStats
}

func (f *fanoutOp[T]) opName() string { return f.name }

func (f *fanoutOp[T]) run(ctx context.Context) (err error) {
	defer func() {
		f.g.qz.waitUnpaused()
		for _, ch := range f.outs {
			close(ch)
		}
	}()
	defer f.g.exit(&err)
	defer recoverPanic(&err)
	qz := f.g.qz
	return drain(ctx, f.g, f.in, func(chunk []T) error {
		f.stats.addIn(int64(len(chunk)))
		for _, ch := range f.outs {
			if err := sendChunk(qz, ctx, ch, chunk); err != nil {
				return err
			}
			f.stats.addOut(int64(len(chunk)))
		}
		return nil
	})
}

// Merge registers an n→1 union that forwards tuples in arrival order. The
// output's event times are NOT globally ordered across branches; an
// Aggregate downstream needs none, since punctuation closes its panes.
func Merge[T any](q *Query, name string, ins []*Stream[T], opts ...OpOption) *Stream[T] {
	o := applyOpts(opts)
	out := newStream[T](q, name, o.buffer)
	chs := make([]chan []T, len(ins))
	for i, in := range ins {
		in.claim(q, name)
		chs[i] = in.ch
		// Merge forwards chunks by reference, so sharing propagates: a
		// merge fed by a Fanout branch produces shared chunks too.
		if in.shared {
			out.shared = true
		}
	}
	if len(ins) == 0 {
		q.recordErr(fmt.Errorf("stream: merge %q: needs at least one input", name))
		return out
	}
	stats := q.metrics.Op(name)
	watchOutput(stats, out.ch)
	// One guard per branch goroutine: each forwards independently, so each
	// needs its own busy flag for the checkpoint stability scan.
	guards := make([]*opGuard, len(chs))
	for i := range guards {
		guards[i] = q.qz.newGuard()
	}
	q.addOperator(&mergeOp[T]{name: name, ins: chs, out: out.ch, guards: guards, stats: stats})
	return out
}

type mergeOp[T any] struct {
	name   string
	ins    []chan []T
	out    chan []T
	guards []*opGuard
	stats  *OpStats
}

func (m *mergeOp[T]) opName() string { return m.name }

func (m *mergeOp[T]) run(ctx context.Context) (err error) {
	defer func() {
		if len(m.guards) > 0 {
			m.guards[0].qz.waitUnpaused()
		}
		close(m.out)
	}()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i, in := range m.ins {
		wg.Add(1)
		go func(in chan []T, g *opGuard) {
			var berr error
			defer wg.Done()
			defer g.exit(&berr)
			berr = drain(ctx, g, in, func(chunk []T) error {
				m.stats.addIn(int64(len(chunk)))
				if err := sendChunk(g.qz, ctx, m.out, chunk); err != nil {
					return err
				}
				m.stats.addOut(int64(len(chunk)))
				return nil
			})
			if berr != nil {
				errOnce.Do(func() { firstErr = berr })
			}
		}(in, m.guards[i])
	}
	wg.Wait()
	return firstErr
}
