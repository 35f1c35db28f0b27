package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantileAgainstReference records a known distribution and
// checks the estimated quantiles against the exact empirical quantiles,
// within the bucket-boundary error bound (one growth factor).
func TestHistogramQuantileAgainstReference(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	h := NewDurationHistogram()
	samples := make([]float64, n)
	for i := range samples {
		// Log-normal-ish latencies spanning ~1µs .. ~1s.
		v := math.Exp(rng.NormFloat64()*2 - 8)
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)
	snap := h.Snapshot()
	if snap.Count != n {
		t.Fatalf("Count = %d, want %d", snap.Count, n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := snap.Quantile(q)
		exact := samples[int(q*float64(n))-1]
		// A log-bucketed histogram with growth factor 2 pins every sample
		// within its bucket, so the estimate is within a factor of 2 of
		// the exact quantile.
		if got < exact/2 || got > exact*2 {
			t.Errorf("Quantile(%v) = %v, exact %v: outside bucket error bound", q, got, exact)
		}
	}
	if got, want := snap.Max, samples[n-1]; got != want {
		t.Errorf("Max = %v, want %v", got, want)
	}
	wantSum := 0.0
	for _, v := range samples {
		wantSum += v
	}
	if math.Abs(snap.Sum-wantSum)/wantSum > 1e-9 {
		t.Errorf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

// TestHistogramBucketBoundaries pins the bucket-assignment edge cases:
// exact boundary values land in the lower bucket (le is inclusive),
// and out-of-range values are clamped, not lost.
func TestHistogramBucketBoundaries(t *testing.T) {
	// Bounds 1, 2, 4, 8.
	for _, tc := range []struct {
		v      float64
		bucket int // -1 = overflow
	}{
		{0, 0}, {0.5, 0}, {1, 0},
		{1.0000001, 1}, {2, 1},
		{2.1, 2}, {4, 2},
		{8, 3},
		{8.1, -1}, {1e9, -1},
		{-5, 0},         // clamped to 0
		{math.NaN(), 0}, // clamped to 0
	} {
		h2 := NewHistogram(1, 2, 4)
		h2.Observe(tc.v)
		s := h2.Snapshot()
		if tc.bucket == -1 {
			if s.Overflow != 1 {
				t.Errorf("Observe(%v): overflow = %d, want 1", tc.v, s.Overflow)
			}
			continue
		}
		if s.Counts[tc.bucket] != 1 {
			t.Errorf("Observe(%v): counts = %v overflow=%d, want bucket %d", tc.v, s.Counts, s.Overflow, tc.bucket)
		}
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := NewDurationHistogram()
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
	h.ObserveDuration(3 * time.Millisecond)
	s = h.Snapshot()
	if got := s.Quantile(0.5); got > 0.003*2 || got <= 0 {
		t.Errorf("single-sample p50 = %v, want within (0, 0.006]", got)
	}
	if got := s.Max; got != 0.003 {
		t.Errorf("Max = %v, want 0.003", got)
	}
}

// TestHistogramQuantileNeverExceedsMax guards the interpolation clamp: a
// p99 estimate interpolated inside the top occupied bucket must not report
// beyond the observed maximum.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewDurationHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.010) // all samples identical, mid-bucket
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := s.Quantile(q); got > s.Max {
			t.Errorf("Quantile(%v) = %v exceeds Max %v", q, got, s.Max)
		}
	}
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines under -race and checks no sample is lost.
func TestHistogramConcurrentRecording(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	h := NewDurationHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Float64() * 0.1)
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perW {
		t.Fatalf("Count = %d, want %d", s.Count, workers*perW)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	total += s.Overflow
	if total != workers*perW {
		t.Fatalf("bucket sum = %d, want %d", total, workers*perW)
	}
	if s.Max > 0.1 || s.Max <= 0 {
		t.Errorf("Max = %v, want within (0, 0.1]", s.Max)
	}
}
