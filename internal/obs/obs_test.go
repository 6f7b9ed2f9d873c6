package obs

import (
	"sync"
	"testing"
)

// TestHistogramExactSmallValues: values 0..15 occupy their own buckets,
// so small-sample quantiles are exact, not quantized.
func TestHistogramExactSmallValues(t *testing.T) {
	h := new(Histogram)
	for v := int64(0); v <= 15; v++ {
		h.Record(v)
	}
	if got := h.Count(); got != 16 {
		t.Fatalf("Count = %d, want 16", got)
	}
	if got := h.Sum(); got != 120 {
		t.Fatalf("Sum = %d, want 120", got)
	}
	if got := h.Max(); got != 15 {
		t.Fatalf("Max = %d, want 15", got)
	}
	// Nearest rank over 16 uniform samples 0..15: the q-quantile is
	// sample floor(16q).
	if got := h.Quantile(0.5); got != 8 {
		t.Fatalf("P50 = %d, want 8", got)
	}
	if got := h.Quantile(0.99); got != 15 {
		t.Fatalf("P99 = %d, want 15", got)
	}
}

// TestHistogramNegativeClamp: negative samples clamp to zero instead of
// indexing out of range.
func TestHistogramNegativeClamp(t *testing.T) {
	h := new(Histogram)
	h.Record(-7)
	if got := h.Sum(); got != 0 {
		t.Fatalf("Sum after negative record = %d, want 0", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("P50 after negative record = %d, want 0", got)
	}
}

// TestHistogramQuantization: log-scale buckets bound relative error at
// about 1/histSubBuckets, and the top occupied bucket reports the exact
// max rather than a midpoint overshoot.
func TestHistogramQuantization(t *testing.T) {
	h := new(Histogram)
	const v = 1_000_000
	for i := 0; i < 100; i++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got > v {
			t.Fatalf("Quantile(%v) = %d overshoots the observed max %d", q, got, v)
		}
		if ratio := float64(v-got) / v; ratio > 0.15 {
			t.Fatalf("Quantile(%v) = %d, relative error %.2f beyond the bucket bound", q, got, ratio)
		}
	}
	// One sample far above the rest: P99 of 100+1 samples lands in the
	// outlier's bucket and must report the exact max, not its midpoint.
	h.Record(1 << 40)
	hi := h.Quantile(0.999)
	if hi != 1<<40 {
		t.Fatalf("top-bucket quantile = %d, want the exact max %d", hi, int64(1)<<40)
	}
}

// TestHistogramEmptyAndNil: zero-state and nil snapshots read all-zero.
func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if s := new(Histogram).Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestHistogramBucketRoundTrip: every bucket's midpoint maps back to the
// same bucket, and bucket indexes stay in range across the int64 domain.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 15, 16, 17, 255, 1 << 20, 1<<63 - 1, 1 << 63} {
		idx := histBucket(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, idx)
		}
	}
	for idx := 0; idx < histBuckets; idx++ {
		mid := histBucketMid(idx)
		if mid < 0 {
			continue // midpoints beyond int64 range wrap; unreachable from Record
		}
		if got := histBucket(uint64(mid)); got != idx {
			t.Fatalf("midpoint %d of bucket %d maps to bucket %d", mid, idx, got)
		}
	}
}

// TestStripedCounterExactSum: concurrent increments from hint-diverse
// writers sum exactly.
func TestStripedCounterExactSum(t *testing.T) {
	var c StripedCounter
	const goroutines = 16
	const iters = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc(uint64(g))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*iters {
		t.Fatalf("Load = %d, want %d", got, goroutines*iters)
	}
	c.Add(3, -5)
	if got := c.Load(); got != goroutines*iters-5 {
		t.Fatalf("Load after Add(-5) = %d", got)
	}
}

// TestTableMetricsSnapshot: the snapshot's derived fields follow the
// conservation identities, and nil bundles snapshot to zeros.
func TestTableMetricsSnapshot(t *testing.T) {
	var nilM *TableMetrics
	if s := nilM.Snapshot(); s != (TableCounters{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	m := NewTableMetrics()
	// 10 slow-path grants (2 of them shared) + 4 fast-path shared grants:
	// a fast hit bumps FastHits only, and Snapshot folds it into Grants.
	for i := 0; i < 10; i++ {
		m.Grants.Inc(uint64(i))
	}
	for i := 0; i < 4; i++ {
		m.FastHits.Inc(uint64(i))
	}
	for i := 0; i < 2; i++ {
		m.SlowShared.Inc(uint64(i))
	}
	for i := 0; i < 7; i++ {
		m.Releases.Inc(uint64(i))
	}
	m.Waiting.Add(3)
	m.Waiting.Add(-1)
	s := m.Snapshot()
	if s.Grants != 14 || s.Releases != 7 || s.Held != 7 {
		t.Fatalf("held identity broken: %+v", s)
	}
	if s.Waiting != 2 {
		t.Fatalf("waiting = %d, want 2 (3 parked, 1 left)", s.Waiting)
	}
	if s.FastPathHits != 4 || s.SlowSharedGrants != 2 || s.SharedGrants != 6 {
		t.Fatalf("shared identity broken: %+v", s)
	}
}

// TestWireMetricsSnapshot: nil-safety and plain field carry-through.
func TestWireMetricsSnapshot(t *testing.T) {
	var nilM *WireMetrics
	if s := nilM.Snapshot(); s != (WireCounters{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	m := NewWireMetrics()
	m.Frames.Add(12)
	m.Bytes.Add(340)
	m.Flushes.Inc()
	m.BatchWidth.Record(12)
	m.InFlight.Add(3)
	m.InFlight.Add(-1)
	s := m.Snapshot()
	if s.Frames != 12 || s.Bytes != 340 || s.Flushes != 1 || s.InFlight != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.BatchWidth.Count != 1 || s.BatchWidth.Max != 12 {
		t.Fatalf("batch width = %+v", s.BatchWidth)
	}
}
