package obs

// This file defines the per-layer metric bundles the engine threads
// through its components, and their plain-value snapshot forms (the
// structs ServiceStats, the dlserver /metrics page, and JSON dumps
// carry). The bundles are always-on: counting is cheap enough that no
// configuration knob disables it, so the conservation invariants the
// test suite asserts hold in production builds too.

// TableMetrics instruments one lock-table backend (or one engine tier's
// view of it — the remote and cluster backends count client-side, so a
// tier's numbers cover exactly the traffic it generated).
//
// Hot-path counters are write-striped by instance ID: a reader crowd on
// one scorching entity bumps Grants from many goroutines at once, and a
// single padded atomic would re-create the cache-line convoy the CAS
// fast path exists to avoid.
type TableMetrics struct {
	// Grants counts slow-path lock grants (mutex/wire), both modes.
	// A CAS fast-path grant bumps only FastHits — one striped inc, not
	// two — and Snapshot reports total grants as Grants + FastHits.
	Grants StripedCounter
	// FastHits counts shared grants taken on the CAS fast path (no
	// stripe mutex). Sharded backend only; zero elsewhere. Every FastHit
	// is a grant: Snapshot folds it into TableCounters.Grants.
	FastHits StripedCounter
	// SlowShared counts shared grants that went through the slow
	// (mutex/wire) path. FastHits + SlowShared = all shared grants.
	SlowShared StripedCounter
	// Releases counts every actual un-hold (releases of nothing are
	// no-ops and not counted). Grants − Releases = locks currently held.
	Releases StripedCounter
	// QueueDepth samples the wait-queue length observed by each request
	// at park time — the contention a slow-path faller actually met.
	QueueDepth Histogram
	// Waiting is the number of requests parked in wait queues right now:
	// raised when a request joins a queue, lowered when it leaves by a
	// grant or a withdrawal (a cancel). Sharded backend only — a wire
	// backend's client never parks a request itself, so its bundle stays
	// 0 and the hosting server's bundle carries the queue.
	Waiting Gauge
}

// NewTableMetrics returns a fresh bundle. Backends normalize a nil
// Config.Metrics to a private bundle so counting is unconditional.
func NewTableMetrics() *TableMetrics { return &TableMetrics{} }

// TableCounters is the plain-value snapshot of a TableMetrics.
type TableCounters struct {
	Grants           int64 `json:"grants"`
	SharedGrants     int64 `json:"shared_grants"`
	FastPathHits     int64 `json:"fast_path_hits"`
	SlowSharedGrants int64 `json:"slow_shared_grants"`
	Releases         int64 `json:"releases"`
	Held             int64 `json:"held"`
	// Wounds is always 0: no table picks victims. The field stays only
	// because the benchmark reads it by name; the next change to the
	// benchmark drops that read.
	Wounds  int64 `json:"wounds"`
	Waiting int64 `json:"waiting"`
	// StripeSplits is always 0: the sharded table's stripe layout is fixed
	// at construction. The field stays only because the benchmark reads it
	// by name; the next change to the benchmark drops that read.
	StripeSplits int64             `json:"stripe_splits"`
	QueueDepth   HistogramSnapshot `json:"queue_depth"`
}

// Snapshot summarizes the bundle. Nil-safe (zeros), and safe concurrent
// with live traffic: each counter is read once, so cross-counter sums
// lag each other by whatever ran between the reads — the standard scrape
// consistency. Releases is read first: every release is counted after its
// grant, so the grants read afterwards include all of them and a live
// Held never goes negative (it may count a few records already freed).
func (m *TableMetrics) Snapshot() TableCounters {
	if m == nil {
		return TableCounters{}
	}
	releases := m.Releases.Load()
	fast, slow := m.FastHits.Load(), m.SlowShared.Load()
	grants := m.Grants.Load() + fast
	return TableCounters{
		Grants:           grants,
		SharedGrants:     fast + slow,
		FastPathHits:     fast,
		SlowSharedGrants: slow,
		Releases:         releases,
		Held:             grants - releases,
		Waiting:          m.Waiting.Load(),
		QueueDepth:       m.QueueDepth.Snapshot(),
	}
}

// WireMetrics instruments one netlock endpoint — a client connection or
// a server's reply side. Most fields are written by one goroutine (the
// endpoint's flush-coalescing writer loop), so plain padded counters
// suffice.
type WireMetrics struct {
	// Frames counts protocol frames written; Bytes their payload bytes
	// including length prefixes; Flushes the buffered-writer flushes —
	// one flush is one write syscall, so Frames/Flushes is the realized
	// batching ratio and BatchWidth its distribution.
	Frames     Counter
	Bytes      Counter
	Flushes    Counter
	BatchWidth Histogram
	// HeartbeatsSent counts lease renewals sent (client side);
	// HeartbeatsRecv counts renewals received (server side).
	HeartbeatsSent Counter
	HeartbeatsRecv Counter
	// LeaseExpiries counts leases the sweeper revoked for missed
	// heartbeats (server side), or expiries surfaced to callers (client
	// and cluster side).
	LeaseExpiries Counter
	// FenceRejections counts releases rejected as stale: their grant was
	// revoked by a lease expiry. (The name predates netlock protocol v4,
	// when releases still carried a fencing token.)
	FenceRejections Counter
	// InFlight is the current number of unacknowledged requests (the
	// pipeline depth); PipelineDepth samples it at each submission.
	InFlight      Gauge
	PipelineDepth Histogram
}

// NewWireMetrics returns a fresh bundle.
func NewWireMetrics() *WireMetrics { return &WireMetrics{} }

// WireCounters is the plain-value snapshot of a WireMetrics.
type WireCounters struct {
	Frames          int64             `json:"frames"`
	Bytes           int64             `json:"bytes"`
	Flushes         int64             `json:"flushes"`
	BatchWidth      HistogramSnapshot `json:"batch_width"`
	HeartbeatsSent  int64             `json:"heartbeats_sent"`
	HeartbeatsRecv  int64             `json:"heartbeats_recv"`
	LeaseExpiries   int64             `json:"lease_expiries"`
	FenceRejections int64             `json:"fence_rejections"`
	InFlight        int64             `json:"in_flight"`
	PipelineDepth   HistogramSnapshot `json:"pipeline_depth"`
}

// Snapshot summarizes the bundle. Nil-safe (zeros).
func (m *WireMetrics) Snapshot() WireCounters {
	if m == nil {
		return WireCounters{}
	}
	return WireCounters{
		Frames:          m.Frames.Load(),
		Bytes:           m.Bytes.Load(),
		Flushes:         m.Flushes.Load(),
		BatchWidth:      m.BatchWidth.Snapshot(),
		HeartbeatsSent:  m.HeartbeatsSent.Load(),
		HeartbeatsRecv:  m.HeartbeatsRecv.Load(),
		LeaseExpiries:   m.LeaseExpiries.Load(),
		FenceRejections: m.FenceRejections.Load(),
		InFlight:        m.InFlight.Load(),
		PipelineDepth:   m.PipelineDepth.Snapshot(),
	}
}
