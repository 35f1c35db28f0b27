package analyzers_test

import (
	"testing"

	"strata/internal/lint/analyzers"
	"strata/internal/lint/linttest"
)

// Each analyzer runs over its testdata module; the fixtures pair every
// true-positive (`// want`) with negative cases and exercise the
// //lint:ignore suppression path (statement-level, function-level, and the
// malformed reasonless directive).

func TestStreamclose(t *testing.T) {
	linttest.Run(t, analyzers.Streamclose, "streamclose")
}

func TestLocksend(t *testing.T) {
	linttest.Run(t, analyzers.Locksend, "locksend")
}

func TestGoctx(t *testing.T) {
	linttest.Run(t, analyzers.Goctx, "goctx")
}

func TestErrdrop(t *testing.T) {
	linttest.Run(t, analyzers.Errdrop, "errdrop")
}

func TestBoundedchan(t *testing.T) {
	linttest.Run(t, analyzers.Boundedchan, "boundedchan")
}

func TestSnapshotgap(t *testing.T) {
	linttest.Run(t, analyzers.Snapshotgap, "snapshotgap")
}

func TestMetricname(t *testing.T) {
	linttest.Run(t, analyzers.Metricname, "metricname")
}
