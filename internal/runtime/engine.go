package runtime

import (
	"fmt"
	"sync/atomic"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// Backend is ignored: an engine runs on the table EngineOptions.Table
// hands it. The type and its two constants stay only because the
// benchmark sets them by name; the next change to the benchmark drops
// that write.
type Backend int

const (
	BackendDefault Backend = iota
	BackendSharded
)

// EngineOptions parameterizes a long-lived Engine (see NewEngine). The
// zero value is a usable in-process engine with default tuning.
type EngineOptions struct {
	// Backend is ignored (see Backend).
	Backend Backend
	// Table is the lock table the engine runs on, built by the caller:
	// locktable.NewSharded in process, a netlock client or a cluster
	// router over the wire. Nil means a fresh sharded table with the
	// default configuration. The engine owns the table, even when
	// NewEngine fails: Close closes it. Certified and two-phase sessions
	// share it, so they exclude each other; two-phase sessions use its
	// TryAcquire. On a locktable.AsyncTable, found by type assertion,
	// releases ship without waiting and certified Locks can pipeline
	// (PipelineDepth).
	Table locktable.Table
	// PipelineDepth enables certified-chain pipelining over a wire
	// backend: sessions keep up to this many
	// unacknowledged acquires in flight (shipping the next lock request
	// before the previous ack returns) and fire receipt-free releases,
	// even before the released entity's own acquire is acked, surfacing
	// their errors at Commit. Zero (the default) keeps every Lock
	// synchronous; Unlock on a wire backend returns at submission either
	// way, its receipt joined by Commit (see Session.Unlock). The knob
	// only takes effect when the table implements locktable.AsyncTable
	// (a netlock client, a cluster router): static certification is the
	// proof that the pipelined chain cannot deadlock, and two-phase
	// sessions, whose mix carries no such proof, take the synchronous path
	// on every engine. A pipelined session trades mid-chain error
	// locality for throughput: a failed acquire (lease expiry) surfaces at
	// a later Lock that joins it, or at Commit at the latest, rather than
	// at the Lock that shipped it, and a context cancellation inside a
	// chain aborts the whole attempt instead of leaving the session
	// resumable.
	PipelineDepth int
	// TraceSampleEvery arms end-to-end op tracing: roughly one in this
	// many lock operations is sampled into a span recording its full stage
	// waterfall (submit → enqueue → flush → server → grant → reply →
	// wakeup; see internal/obs). Zero (the default) disables tracing
	// entirely; negative selects DefaultTraceSample. Unsampled operations
	// pay one predicted branch; sampling never disarms the sharded
	// backend's CAS shared fast path, because in-process spans are stamped
	// by the session layer, not the table.
	TraceSampleEvery int
}

// DefaultTraceSample is the sampling period TraceSampleEvery < 0 selects:
// frequent enough that a benchmark run collects hundreds of waterfalls,
// sparse enough that the clock reads vanish in the op cost.
const DefaultTraceSample = 64

// Engine is a long-lived lock-service core over the lock table it is
// handed (EngineOptions.Table: hash-striped mutexes in process, or a wire
// client). Transactions are driven through it as Sessions (Begin / Lock /
// Unlock / Commit / Abort). Create with NewEngine, shut down with Close.
type Engine struct {
	ddb   *model.DDB
	table locktable.Table

	// async/pipeline: certified-chain pipelining (EngineOptions.
	// PipelineDepth), armed only when the table implements the async
	// capability.
	async    locktable.AsyncTable
	pipeline int

	// releaseAsync is how Unlock ships a release on an AsyncTable without
	// waiting for the server: the fire-and-forget ReleaseAsync on a
	// pipelined engine, ReleaseAsyncAcked (a release with an execution
	// receipt) otherwise. Nil on a table without the async capability (the
	// in-process one), whose Release is synchronous. Picked once in
	// NewEngine.
	releaseAsync func(model.EntityID, locktable.InstKey) locktable.Completion

	// stopped is set by Close; no session operation waits on it.
	stopped atomic.Bool

	// modes holds the cumulative tallies of certified sessions [0] and
	// two-phase ones [1], bumped per session, never per lock operation:
	// unless tracing is armed, a lock operation writes nothing
	// engine-global. The table counts its own operations into the
	// obs.TableMetrics bundle it was built with.
	modes  [2]tally
	nextID atomic.Int64

	// Op tracing (EngineOptions.TraceSampleEvery): spans holds the sampled
	// waterfalls, stageHist their per-stage gap distributions, spanEvery
	// the sampling period. A sampled acquire's span rides
	// locktable.Instance; an in-process table ignores it, so the session
	// stamps that table's single "grant" stage itself.
	spans     *obs.SpanRing
	stageHist *obs.StageHistograms
	spanEvery int
}

// tally is one session mode's cumulative counters (see Counters).
// pipelinedOps/syncOps split lock operations by path: certified-chain
// pipelined submission vs the synchronous path every other session takes.
type tally struct {
	commits, aborts, discards atomic.Int64
	pipelinedOps, syncOps     obs.StripedCounter
}

// addTo adds the tally's counts to c.
func (t *tally) addTo(c *Counters) {
	c.Commits += t.commits.Load()
	c.Aborts += t.aborts.Load()
	c.Discarded += t.discards.Load()
	c.PipelinedOps += t.pipelinedOps.Load()
	c.SyncOps += t.syncOps.Load()
}

// NewEngine builds an engine over the database and the table opts hands
// it. The engine serves sessions until Close.
func NewEngine(ddb *model.DDB, opts EngineOptions) (*Engine, error) {
	if ddb == nil {
		if opts.Table != nil {
			opts.Table.Close()
		}
		return nil, fmt.Errorf("runtime: nil database")
	}
	e := &Engine{ddb: ddb, table: opts.Table}
	if e.table == nil {
		e.table = locktable.NewSharded(ddb, locktable.Config{})
	}
	if opts.TraceSampleEvery != 0 {
		e.spanEvery = opts.TraceSampleEvery
		if e.spanEvery < 0 {
			e.spanEvery = DefaultTraceSample
		}
		e.spans = obs.NewSpanRing(1024)
		e.stageHist = new(obs.StageHistograms)
	}
	if at, ok := e.table.(locktable.AsyncTable); ok {
		e.releaseAsync = at.ReleaseAsyncAcked
		// Pipelining is gated on the paper's thesis: only a statically
		// certified mix has the deadlock-freedom proof that makes shipping
		// lock request N+1 before ack N sound, and only certified sessions
		// run on a wire table. Tables without the async capability (the
		// in-process one) silently stay synchronous — their acquires are
		// already sub-microsecond.
		if opts.PipelineDepth > 0 {
			e.async = at
			e.pipeline = opts.PipelineDepth
			e.releaseAsync = at.ReleaseAsync
		}
	}
	return e, nil
}

// DDB returns the database the engine serves.
func (e *Engine) DDB() *model.DDB { return e.ddb }

// Counters is a snapshot of the engine's cumulative counters.
type Counters struct {
	Commits int64 `json:"commits"`
	Aborts  int64 `json:"aborts"`
	// Discarded counts sessions ended by engine shutdown rather than by
	// their own Commit or Abort: an Abort on a closed engine releases
	// nothing and is not a transaction abort. Every session ends in
	// exactly one of Commits, Aborts and Discarded.
	Discarded int64 `json:"discarded"`
	// Wounds is always 0: no engine picks victims. The field stays only
	// because the benchmark reads it by name; the next change to the
	// benchmark drops that read.
	Wounds int64 `json:"wounds"`
	// PipelinedOps counts lock operations submitted through the
	// certified-chain async path; SyncOps those that took the synchronous
	// path (in-process backends, or engines without a pipeline depth).
	// Their split is the realized pipelining ratio. Sessions tally locally
	// and flush at session end, so live reads lag open sessions' in-flight
	// operations; exact once sessions close.
	PipelinedOps int64 `json:"pipelined_ops"`
	SyncOps      int64 `json:"sync_ops"`
}

// Counters returns the engine's cumulative counters over both session
// modes. Safe to call on a running engine.
func (e *Engine) Counters() (c Counters) {
	e.modes[0].addTo(&c)
	e.modes[1].addTo(&c)
	return c
}

// ModeCounters returns the cumulative counters of the engine's two-phase
// sessions (twoPhase true) or of its certified ones. Safe to call on a
// running engine.
func (e *Engine) ModeCounters(twoPhase bool) (c Counters) {
	e.modeTally(twoPhase).addTo(&c)
	return c
}

// modeTally is the counter set of the engine's sessions of one mode.
func (e *Engine) modeTally(twoPhase bool) *tally {
	if twoPhase {
		return &e.modes[1]
	}
	return &e.modes[0]
}

// Spans returns the engine's sampled-span ring (nil unless
// EngineOptions.TraceSampleEvery armed tracing). Safe to read concurrently
// with traffic.
func (e *Engine) Spans() *obs.SpanRing { return e.spans }

// StageLatency summarizes the per-stage gap distributions of every sampled
// acquire: where a sampled Lock's latency went, stage by stage, so its
// "total" row is sampled Lock latency on every backend. Release spans reach
// the span ring only. Nil unless tracing is armed.
func (e *Engine) StageLatency() []obs.StageLatency { return e.stageHist.Snapshot() }

// recordSpan commits a completed acquire span and folds it into the
// per-stage distributions. The caller must be the span's last holder (see
// obs.Span.Commit).
func (e *Engine) recordSpan(sp *obs.Span) {
	if sp == nil {
		return
	}
	e.stageHist.Record(sp.Commit())
}

// Close stops the lock table. Session operations blocked in the engine
// return ErrClosed; locks still held by open sessions die with the lock
// table. Close is idempotent.
func (e *Engine) Close() {
	e.stopped.Store(true)
	e.table.Close()
}
