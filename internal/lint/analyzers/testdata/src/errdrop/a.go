// Test fixtures for the errdrop analyzer: Close/Flush/Sync errors must be
// handled or explicitly discarded.
package a

import (
	"errors"
	"os"
)

type handle struct{}

func (h *handle) Close() error { return errors.New("close failed") }
func (h *handle) Flush() error { return errors.New("flush failed") }
func (h *handle) Sync() error  { return errors.New("sync failed") }

// wal mirrors the kvstore's unexported teardown methods.
type wal struct{}

func (w *wal) close() error { return errors.New("wal close failed") }

// silent has a Close with no error result: nothing to drop.
type silent struct{}

func (s *silent) Close() {}

// flaky's Close happens to return nil today, but the signature promises
// an error: the call site must not assume the body.
type flaky struct{}

func (f *flaky) Close() (err error) { return nil }

func bad(h *handle, w *wal, f *flaky) {
	h.Close() // want `error from h\.Close is discarded`
	h.Flush() // want `error from h\.Flush is discarded`
	h.Sync()  // want `error from h\.Sync is discarded`
	w.close() // want `error from w\.close is discarded`
	f.Close() // want `error from f\.Close is discarded`
}

func badFile(f *os.File) {
	f.Close() // want `error from f\.Close is discarded`
}

func good(h *handle, f *os.File) error {
	if err := h.Close(); err != nil {
		return err
	}
	// Explicit discard is an auditable decision, not a drop.
	_ = h.Flush()
	// Deferred teardown of read-side handles is accepted idiom.
	defer f.Close()
	// The builtin close is not an error-returning Close method.
	ch := make(chan int)
	close(ch)
	// Close without an error result has nothing to report.
	var s silent
	s.Close()
	return h.Sync()
}

// ignoredClose: suppression is honored for deliberate best-effort closes.
func ignoredClose(h *handle) {
	//lint:ignore errdrop best-effort close on an error path
	h.Close()
}
