package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
)

// Backend selects the engine's lock-table implementation (see
// internal/locktable).
type Backend int

const (
	// BackendDefault is BackendSharded, for every strategy.
	BackendDefault Backend = iota
	// BackendSharded: hash-striped mutexes with per-entity shared/
	// exclusive lock states and FIFO wait queues; uncontended grants take
	// zero channel hops. The one in-process table.
	BackendSharded
	// BackendRemote: the cross-process backend — a netlock client speaking
	// the wire protocol to a dlserver-hosted table (internal/netlock).
	// Requires EngineOptions.RemoteAddr; never chosen by BackendDefault.
	BackendRemote
	// BackendCluster: the partitioned lock space — each entity hash-routed
	// to one of N dlservers (internal/cluster), so independent servers
	// jointly serve one lock space with no cross-server coordination on
	// the certified tier. Requires EngineOptions.RemoteAddrs; never chosen
	// by BackendDefault.
	BackendCluster
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendDefault:
		return "default"
	case BackendSharded:
		return "sharded"
	case BackendRemote:
		return "remote"
	case BackendCluster:
		return "cluster"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// resolve maps BackendDefault to the in-process table.
func (b Backend) resolve() Backend {
	if b == BackendDefault {
		return BackendSharded
	}
	return b
}

// EngineOptions parameterizes a long-lived Engine (see NewEngine). The
// zero value is a usable StrategyNone engine with default tuning.
type EngineOptions struct {
	// Strategy selects the engine's deadlock handling.
	Strategy Strategy
	// Backend selects the lock-table implementation. BackendDefault is
	// the in-process sharded table.
	Backend Backend
	// RemoteAddr is the netlock server address BackendRemote dials. The
	// server must host the same database (the handshake verifies a
	// fingerprint) with a matching wound-wait/trace configuration.
	RemoteAddr string
	// RemoteAddrs are the dlserver addresses BackendCluster dials — one
	// partition per address, each entity owned by exactly one server. The
	// list order is part of the cluster identity: every client process
	// must pass the same addresses in the same order to agree on entity
	// ownership. Every server must host the same database with matching
	// wound-wait/trace configuration.
	RemoteAddrs []string
	// Table is the lock-table configuration, handed to the backend by
	// value: the stripe count (Shards), the exact grant log (Trace — only
	// safe to read after Close) and the counter bundle (Metrics — nil
	// allocates a private one). See locktable.Config for each knob. The
	// engine owns WoundWait and OnWound and overwrites them from Strategy.
	Table locktable.Config
	// PipelineDepth enables certified-chain pipelining over a wire
	// backend: sessions of a StrategyNone engine keep up to this many
	// unacknowledged acquires in flight (shipping the next lock request
	// before the previous ack returns) and fire receipt-free releases,
	// even before the released entity's own acquire is acked, surfacing
	// their errors at Commit. Zero (the default) keeps every Lock
	// synchronous; Unlock on a wire backend returns at submission either
	// way, its receipt joined by Commit (see Session.Unlock). The knob
	// only takes effect when the strategy is StrategyNone AND the backend
	// implements locktable.AsyncTable (remote, cluster): static
	// certification is the proof that the pipelined chain cannot
	// deadlock, so the wound-wait tier — whose mix carries no such proof
	// — always Locks synchronously. A pipelined session trades mid-chain
	// error locality for throughput: a failed acquire (wound, lease
	// expiry) surfaces at a later Lock that joins it, or at Commit at the
	// latest, rather than at the Lock that shipped it, and a context
	// cancellation inside a chain aborts the whole attempt instead of
	// leaving the session resumable.
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

// Engine is a long-lived lock-service core over a pluggable lock table
// (internal/locktable — hash-striped mutexes in process, or a wire
// client). Transactions are driven through it as Sessions (Begin / Lock /
// Unlock / Commit / Abort). Create with NewEngine, shut down with Close.
type Engine struct {
	strategy Strategy
	backend  Backend
	ddb      *model.DDB
	table    locktable.Table

	// async/pipeline: certified-chain pipelining (EngineOptions.
	// PipelineDepth), armed only when the strategy is StrategyNone and
	// the table implements the async capability.
	async    locktable.AsyncTable
	pipeline int

	// releaseAsync is how Unlock ships a release on a wire backend
	// without waiting for the server: the AsyncTable's fire-and-forget
	// ReleaseAsync on a pipelined engine, the backend's ReleaseAsyncAcked
	// (a release with an execution receipt) otherwise — remote and cluster
	// alike. Nil on the in-process table, whose Release is synchronous.
	// Picked once in NewEngine.
	releaseAsync func(model.EntityID, locktable.InstKey) locktable.Completion

	stop     chan struct{}
	stopOnce sync.Once

	// Cumulative tallies, bumped per session or per wound, never per lock
	// operation: unless tracing is armed, a lock operation writes nothing
	// engine-global.
	commits  atomic.Int64
	aborts   atomic.Int64
	discards atomic.Int64
	wounds   atomic.Int64
	nextID   atomic.Int64

	// Observability (see internal/obs). metrics is the backend's counter
	// bundle; pipelinedOps/syncOps split lock operations by path —
	// certified-chain pipelined submission vs the synchronous fallback
	// every other configuration takes.
	metrics      *obs.TableMetrics
	pipelinedOps obs.StripedCounter
	syncOps      obs.StripedCounter

	// Op tracing (EngineOptions.TraceSampleEvery): spans holds the sampled
	// waterfalls, stageHist their per-stage gap distributions, spanEvery
	// the sampling period. A sampled acquire's span rides
	// locktable.Instance; the sharded backend ignores it, so the session
	// stamps that backend's single "grant" stage itself.
	spans     *obs.SpanRing
	stageHist *obs.StageHistograms
	spanEvery int

	// mu guards abortChs, so a StrategyNone engine never takes it.
	mu       sync.Mutex
	abortChs map[int]chan struct{} // instance id -> abort signal (not StrategyNone)
}

// NewEngine builds an engine over the database and starts its lock table.
// The engine serves sessions until Close.
func NewEngine(ddb *model.DDB, opts EngineOptions) (*Engine, error) {
	if ddb == nil {
		return nil, fmt.Errorf("runtime: nil database")
	}
	cfg := opts.Table
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewTableMetrics()
	}
	e := &Engine{
		strategy: opts.Strategy,
		backend:  opts.Backend.resolve(),
		ddb:      ddb,
		stop:     make(chan struct{}),
		abortChs: map[int]chan struct{}{},
		metrics:  cfg.Metrics,
	}
	cfg.WoundWait = opts.Strategy == StrategyWoundWait
	cfg.OnWound = func(holderID int) {
		e.wounds.Add(1)
		e.signalAbort(holderID)
	}
	switch e.backend {
	case BackendSharded:
		e.table = locktable.NewSharded(ddb, cfg)
	case BackendRemote:
		if opts.RemoteAddr == "" {
			return nil, fmt.Errorf("runtime: remote backend needs a server address")
		}
		tab, err := dialRemote(opts.RemoteAddr, ddb, cfg)
		if err != nil {
			return nil, fmt.Errorf("runtime: remote lock table: %w", err)
		}
		e.table = tab
		e.releaseAsync = tab.ReleaseAsyncAcked
	case BackendCluster:
		// cluster.New rejects an empty address list itself.
		tab, err := cluster.New(ddb, cfg, opts.RemoteAddrs, cluster.Options{})
		if err != nil {
			return nil, fmt.Errorf("runtime: cluster lock table: %w", err)
		}
		e.table = tab
		e.releaseAsync = tab.ReleaseAsyncAcked
	default:
		return nil, fmt.Errorf("runtime: unknown lock-table backend %v", opts.Backend)
	}
	if opts.TraceSampleEvery != 0 {
		e.spanEvery = opts.TraceSampleEvery
		if e.spanEvery < 0 {
			e.spanEvery = DefaultTraceSample
		}
		e.spans = obs.NewSpanRing(1024)
		e.stageHist = new(obs.StageHistograms)
	}
	if opts.PipelineDepth > 0 && opts.Strategy == StrategyNone {
		// Pipelining is gated on the paper's thesis: only a statically
		// certified mix (StrategyNone) has the deadlock-freedom proof that
		// makes shipping lock request N+1 before ack N sound. Backends
		// without the async capability (all in-process ones) silently stay
		// synchronous — their acquires are already sub-microsecond.
		if at, ok := e.table.(locktable.AsyncTable); ok {
			e.async = at
			e.pipeline = opts.PipelineDepth
			e.releaseAsync = at.ReleaseAsync
		}
	}
	return e, nil
}

// dialRemote dials BackendRemote's client. A variable only so tests can
// hand the engine a client dialed with other DialOptions (a stalled
// heartbeat); the engine itself always dials with the zero value.
var dialRemote = func(addr string, ddb *model.DDB, cfg locktable.Config) (*netlock.Client, error) {
	return netlock.Dial(addr, ddb, cfg, netlock.DialOptions{})
}

// DDB returns the database the engine serves.
func (e *Engine) DDB() *model.DDB { return e.ddb }

// Strategy returns the engine's deadlock handling.
func (e *Engine) Strategy() Strategy { return e.strategy }

// Backend returns the engine's resolved lock-table backend.
func (e *Engine) Backend() Backend { return e.backend }

// Counters is a snapshot of the engine's cumulative counters.
type Counters struct {
	Commits int64 `json:"commits"`
	Aborts  int64 `json:"aborts"`
	// Discarded counts sessions ended by engine shutdown rather than by
	// their own Commit or Abort: an Abort on a closed engine releases
	// nothing and is not a transaction abort. Every session ends in
	// exactly one of Commits, Aborts and Discarded.
	Discarded int64 `json:"discarded"`
	Wounds    int64 `json:"wounds"`
	// PipelinedOps counts lock operations submitted through the
	// certified-chain async path; SyncOps those that took the synchronous
	// fallback (in-process backends, or strategies without the
	// certification proof). Their split is the realized pipelining ratio.
	// Sessions tally locally and flush at session end, so live reads lag
	// open sessions' in-flight operations; exact once sessions close.
	PipelinedOps int64 `json:"pipelined_ops"`
	SyncOps      int64 `json:"sync_ops"`
}

// Counters returns the engine's cumulative counters. Safe to call on a
// running engine.
func (e *Engine) Counters() Counters {
	return Counters{
		Commits:      e.commits.Load(),
		Aborts:       e.aborts.Load(),
		Discarded:    e.discards.Load(),
		Wounds:       e.wounds.Load(),
		PipelinedOps: e.pipelinedOps.Load(),
		SyncOps:      e.syncOps.Load(),
	}
}

// TableMetrics returns the engine's lock-table counter bundle
// (EngineOptions.Table.Metrics, or the private one). Safe to read concurrently
// with traffic and after Close.
func (e *Engine) TableMetrics() *obs.TableMetrics { return e.metrics }

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
	e.stopOnce.Do(func() { close(e.stop) })
	e.table.Close()
}

// signalAbort notifies a session to abort (non-blocking; coalesced).
func (e *Engine) signalAbort(id int) {
	e.mu.Lock()
	ch := e.abortChs[id]
	e.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}
