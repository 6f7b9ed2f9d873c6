// Package obs is the engine's allocation-free observability core: padded
// atomic counters (plain and write-striped), fixed-bucket log-scale
// latency histograms, and sampled op spans (span.go).
//
// Everything here is priced for the lock-grant hot paths it instruments:
//
//   - No locks anywhere. Every write is a single atomic RMW; every read
//     is a sum over atomics. Readers and writers never wait on each
//     other, so Stats-style snapshots are safe concurrent with traffic
//     and after shutdown.
//   - No allocation after construction. Counters and histograms are flat
//     arrays.
//   - No time.Now of its own. Histograms record values the caller already
//     has (a duration it measured for its own purposes, a queue length, a
//     batch width); the package never introduces a clock read onto a path
//     that didn't have one.
//   - Cache-line padding where it matters. A counter bumped by a crowd of
//     goroutines would otherwise become the very convoy the sharded lock
//     table's padded per-entity slots exist to avoid, so the hot-path
//     counters (StripedCounter) spread writers over padded cells by a
//     caller-supplied hint and sum on read.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// pad is the tail padding that keeps an atomic word alone on its cache
// line (64-byte lines; the atomic itself is 8 bytes).
type pad = [56]byte

// Counter is a single padded atomic counter for low-contention sites: a
// connection's writer loop, a lease sweeper. For
// counters bumped from many goroutines at once, use StripedCounter.
type Counter struct {
	v atomic.Int64
	_ pad
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a padded atomic level (in-flight depth, live connections):
// Add with a negative delta lowers it.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// stripedCells is the cell count of a StripedCounter. 16 padded cells
// (1 KiB) keeps independent writers on independent cache lines for any
// realistic goroutine crowd while a read is still a 16-term sum.
const stripedCells = 16

// StripedCounter spreads concurrent writers over padded cells chosen by a
// caller-supplied hint (an instance ID, a connection ID — anything that
// differs across the concurrent writers), so a reader crowd bumping the
// same logical counter does not serialize on one cache line. Load sums
// the cells; the total is exact, only its distribution is hint-shaped.
type StripedCounter struct {
	cells [stripedCells]struct {
		v atomic.Int64
		_ pad
	}
}

// cellOf mixes the hint so dense small hints (session IDs 1..n) spread
// over all cells instead of the first few.
func cellOf(hint uint64) int {
	return int((hint * 0x9E3779B97F4A7C15) >> 60)
}

// Inc adds 1 to the cell chosen by hint.
func (c *StripedCounter) Inc(hint uint64) { c.cells[cellOf(hint)].v.Add(1) }

// Add adds n to the cell chosen by hint.
func (c *StripedCounter) Add(hint uint64, n int64) { c.cells[cellOf(hint)].v.Add(n) }

// Load returns the exact sum over all cells.
func (c *StripedCounter) Load() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Histogram bucket layout: values 0..15 are exact, larger values land in
// log-scale buckets with histSubBuckets sub-buckets per octave (power of
// two), bounding quantization error at 1/histSubBuckets ≈ 12.5% of the
// value — tight enough for latency percentiles without per-sample
// allocation or sorting. 496 buckets cover the full int64 range.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	histBuckets    = ((64 - histSubBits) << histSubBits) + histSubBuckets
)

// Histogram is a fixed-bucket log-scale histogram of non-negative int64
// samples (nanoseconds, queue depths, batch widths). Record is two atomic
// adds and an atomic max — there is deliberately no separate sample
// counter; Count sums the buckets at read time, keeping the record path
// one word cheaper. Quantiles are computed on demand from the bucket
// counts. The zero value is NOT ready — buckets are fine, but use it by
// pointer so counts aren't copied; construct in place or via new.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// histBucket maps a sample to its bucket index.
func histBucket(u uint64) int {
	if u < histSubBuckets<<1 {
		return int(u) // exact small values
	}
	e := bits.Len64(u)
	shift := uint(e - 1 - histSubBits)
	sub := int((u >> shift) & (histSubBuckets - 1))
	return ((e - histSubBits) << histSubBits) + sub
}

// histBucketMid returns a representative value (the bucket midpoint) for
// a bucket index — the value quantiles report.
func histBucketMid(idx int) int64 {
	if idx < histSubBuckets<<1 {
		return int64(idx)
	}
	e := (idx >> histSubBits) + histSubBits
	sub := int64(idx & (histSubBuckets - 1))
	shift := uint(e - 1 - histSubBits)
	low := int64(1)<<(e-1) | sub<<shift
	return low + int64(1)<<shift/2
}

// Record adds one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(uint64(v))].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of recorded samples (a sum over the bucket
// counts — a read-time walk, so the record path skips a counter).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank over the
// bucket counts, as the matched bucket's midpoint — except the maximal
// bucket, which reports the exact observed max. Returns 0 when empty.
// The walk reads each bucket once; samples recorded concurrently may or
// may not be included, which is the consistency a live scrape expects.
func (h *Histogram) Quantile(q float64) int64 {
	// One pass to copy the bucket counts, so the total the rank is
	// computed from and the counts the walk consumes agree even while
	// writers are recording.
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total <= 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		seen += n
		if seen > rank {
			mid := histBucketMid(i)
			if m := h.max.Load(); mid > m {
				return m // the top occupied bucket's midpoint can overshoot
			}
			return mid
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is a point-in-time summary of a Histogram — the form
// stats structs and JSON dumps carry.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot summarizes the histogram. Nil-safe: a nil histogram snapshots
// to zeros, so optional instruments can be dumped unconditionally.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
