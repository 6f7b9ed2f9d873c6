package runtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distlock/internal/cluster"
	"distlock/internal/graph"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
)

// Backend selects the engine's lock-table implementation (see
// internal/locktable).
type Backend int

const (
	// BackendDefault is BackendSharded, for every strategy. (Under
	// StrategyDetect the engine forces DisableSharedFastPath, so the
	// detector sees every shared holder named in Snapshot.)
	BackendDefault Backend = iota
	// BackendSharded: hash-striped mutexes with per-entity shared/
	// exclusive lock states and FIFO wait queues; uncontended grants take
	// zero channel hops. The one in-process table.
	BackendSharded
	// BackendRemote: the cross-process backend — a netlock client speaking
	// the wire protocol to a dlserver-hosted table (internal/netlock).
	// Requires EngineOptions.RemoteAddr; never chosen by BackendDefault.
	// Rejects StrategyDetect: the lock space is shared with other
	// processes, and no server-side detector sees their waits.
	BackendRemote
	// BackendCluster: the partitioned lock space — each entity hash-routed
	// to one of N dlservers (internal/cluster), so independent servers
	// jointly serve one lock space with no cross-server coordination on
	// the certified tier. Requires EngineOptions.RemoteAddrs; never chosen
	// by BackendDefault. Rejects StrategyDetect, as BackendRemote does.
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
	// DetectEvery is the detector period (StrategyDetect only). Default 2ms.
	DetectEvery time.Duration
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
	// value: stripe tuning, the exact grant log (Trace — only
	// safe to read after Close), the counter bundle (Metrics — nil
	// allocates a private one) and the lossy event ring (Tracer). See
	// locktable.Config for each knob. The engine owns WoundWait, OnWound
	// and DisableSharedFastPath and overwrites them from Strategy.
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
	// MeasureLockWait arms the engine's lock-wait histogram (see
	// Engine.LockWait): two clock reads per granted Lock. MeasureHoldTime
	// arms the hold-time histogram (Engine.HoldTime): grant-stamp
	// bookkeeping per lock plus a third clock read at release. Both off by
	// default: they are the instruments that add time.Now calls to the
	// per-operation path, so they stay opt-in while the counters are
	// unconditional.
	MeasureLockWait bool
	MeasureHoldTime bool
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

// Engine is a long-lived lock-service core: a pluggable lock table
// (internal/locktable — hash-striped mutexes in process, or a wire
// client), plus an optional global deadlock detector. Transactions are
// driven through it as Sessions (Begin / Lock / Unlock / Commit / Abort);
// the batch entry point Run replays templates over the same session layer.
// Create with NewEngine, shut down with Close.
type Engine struct {
	strategy    Strategy
	backend     Backend
	ddb         *model.DDB
	table       locktable.Table
	detectEvery time.Duration
	trace       bool

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
	wg       sync.WaitGroup
	holds    holdTimer // high-resolution Config.HoldTime delays (lazy)

	// Cumulative tallies, bumped per session or per deadlock-handling
	// event, never per lock operation: unless a latency histogram or
	// tracing is armed, a lock operation writes nothing engine-global.
	// commits is also half of Run's stall watchdog (the table's grant
	// counter is the other half).
	commits  atomic.Int64
	aborts   atomic.Int64
	discards atomic.Int64
	wounds   atomic.Int64
	detects  atomic.Int64
	nextID   atomic.Int64

	// Observability (see internal/obs). metrics is the backend's counter
	// bundle; tracer the optional event ring; pipelinedOps/syncOps split
	// lock operations by path — certified-chain pipelined submission vs
	// the synchronous fallback every other configuration takes. lockWait
	// and holdTime are non-nil only with EngineOptions.MeasureLockWait /
	// MeasureHoldTime respectively.
	metrics      *obs.TableMetrics
	tracer       *obs.Ring
	pipelinedOps obs.StripedCounter
	syncOps      obs.StripedCounter
	lockWait     *obs.Histogram
	holdTime     *obs.Histogram

	// Op tracing (EngineOptions.TraceSampleEvery): spans holds the sampled
	// waterfalls, stageHist their per-stage gap distributions, spanEvery
	// the sampling period. spanTable/asyncSpan are the backend's traced
	// acquire capabilities, nil for in-process backends (whose single
	// "grant" stage the session stamps itself — the table, and in
	// particular the sharded CAS fast path, never sees a span).
	spans     *obs.SpanRing
	stageHist *obs.StageHistograms
	spanEvery int
	spanTable locktable.SpannedTable
	asyncSpan locktable.SpannedAsyncTable

	// mu guards the two maps below, so a StrategyNone engine without
	// Trace never takes it.
	mu       sync.Mutex
	abortChs map[int]chan struct{} // instance id -> abort signal (not StrategyNone)
	commitEp map[int]int           // instance id -> commit epoch (Trace only)
}

// NewEngine builds an engine over the database and starts its lock table
// (and the detector, under StrategyDetect). The engine serves sessions
// until Close.
func NewEngine(ddb *model.DDB, opts EngineOptions) (*Engine, error) {
	if ddb == nil {
		return nil, fmt.Errorf("runtime: nil database")
	}
	if opts.DetectEvery <= 0 {
		opts.DetectEvery = 2 * time.Millisecond
	}
	if b := opts.Backend.resolve(); opts.Strategy == StrategyDetect && (b == BackendRemote || b == BackendCluster) {
		// The detector snapshots this engine's view of the table, but a wire
		// lock space is shared with other processes whose waits it cannot
		// see, and no server-side detector covers them: a cross-process
		// cycle would hang. Refuse rather than run uncovered.
		return nil, fmt.Errorf("runtime: %v strategy is not supported on the %v backend (no server-side deadlock detector)", opts.Strategy, b)
	}
	cfg := opts.Table
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewTableMetrics()
	}
	e := &Engine{
		strategy:    opts.Strategy,
		backend:     opts.Backend.resolve(),
		ddb:         ddb,
		detectEvery: opts.DetectEvery,
		trace:       cfg.Trace,
		stop:        make(chan struct{}),
		abortChs:    map[int]chan struct{}{},
		commitEp:    map[int]int{},
		metrics:     cfg.Metrics,
		tracer:      cfg.Tracer,
	}
	if opts.MeasureLockWait {
		e.lockWait = new(obs.Histogram)
	}
	if opts.MeasureHoldTime {
		e.holdTime = new(obs.Histogram)
	}
	e.holds.stop = e.stop
	cfg.WoundWait = opts.Strategy == StrategyWoundWait
	cfg.OnWound = func(holderID int) {
		e.wounds.Add(1)
		e.signalAbort(holderID)
	}
	// The detector closes wait-for cycles through shared holders, so they
	// must be named in Snapshot: anonymous fast-path readers would hide
	// the edges and cycles would go undetected.
	cfg.DisableSharedFastPath = opts.Strategy == StrategyDetect
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
		e.spanTable, _ = e.table.(locktable.SpannedTable)
		e.asyncSpan, _ = e.table.(locktable.SpannedAsyncTable)
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
	if e.strategy == StrategyDetect {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.detector()
		}()
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
	// their own Commit or Abort: an Abort (or the batch driver's discard)
	// on a closed engine releases nothing and is not a transaction abort.
	// Every session ends in exactly one of Commits, Aborts and Discarded.
	Discarded int64 `json:"discarded"`
	Wounds    int64 `json:"wounds"`
	Detected  int64 `json:"detected"`
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
		Detected:     e.detects.Load(),
		PipelinedOps: e.pipelinedOps.Load(),
		SyncOps:      e.syncOps.Load(),
	}
}

// TableMetrics returns the engine's lock-table counter bundle
// (EngineOptions.Table.Metrics, or the private one). Safe to read concurrently
// with traffic and after Close.
func (e *Engine) TableMetrics() *obs.TableMetrics { return e.metrics }

// Tracer returns the engine's event ring (nil unless EngineOptions.Table.Tracer
// was set).
func (e *Engine) Tracer() *obs.Ring { return e.tracer }

// LockWait summarizes the engine's lock-wait histogram: the wall time of
// every granted Session.Lock, in nanoseconds. Zeros unless
// EngineOptions.MeasureLockWait armed it.
func (e *Engine) LockWait() obs.HistogramSnapshot { return e.lockWait.Snapshot() }

// HoldTime summarizes the engine's hold-time histogram: grant-to-release
// wall time of every cleanly unlocked lock, in nanoseconds. Zeros unless
// EngineOptions.MeasureHoldTime armed it.
func (e *Engine) HoldTime() obs.HistogramSnapshot { return e.holdTime.Snapshot() }

// Spans returns the engine's sampled-span ring (nil unless
// EngineOptions.TraceSampleEvery armed tracing). Safe to read concurrently
// with traffic.
func (e *Engine) Spans() *obs.SpanRing { return e.spans }

// StageLatency summarizes the per-stage gap distributions of every span
// / the engine committed: where a sampled op's latency went, stage by stage.
// Nil unless tracing is armed.
func (e *Engine) StageLatency() []obs.StageLatency { return e.stageHist.Snapshot() }

// recordSpan commits a completed span and folds it into the per-stage
// distributions. The caller must be the span's last holder (see
// obs.Span.Commit).
func (e *Engine) recordSpan(sp *obs.Span) {
	if sp == nil {
		return
	}
	e.stageHist.Record(sp.Commit())
}

// Close stops the lock table (and detector) and waits for them to exit.
// Session operations blocked in the engine return ErrClosed; locks still
// held by open sessions die with the lock table. Close is idempotent.
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.table.Close()
	e.wg.Wait()
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

// detector periodically snapshots the global wait-for graph through the
// lock table and aborts the youngest transaction on each cycle.
func (e *Engine) detector() {
	for {
		select {
		case <-e.stop:
			return
		case <-time.After(e.detectEvery):
		}
		edges := e.table.Snapshot()
		if len(edges) == 0 {
			continue
		}
		// Build an id-level graph, remembering each id's current attempt
		// key so the victim can be wounded epoch-exactly.
		ids := map[int]int{}
		var prio []int64
		var order []int
		keyOf := map[int]locktable.InstKey{}
		idx := func(key locktable.InstKey, p int64) int {
			keyOf[key.ID] = key
			if i, ok := ids[key.ID]; ok {
				return i
			}
			ids[key.ID] = len(order)
			order = append(order, key.ID)
			prio = append(prio, p)
			return len(order) - 1
		}
		// Deterministic edge order.
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Waiter.ID != edges[j].Waiter.ID {
				return edges[i].Waiter.ID < edges[j].Waiter.ID
			}
			return edges[i].Holder.ID < edges[j].Holder.ID
		})
		g := graph.NewDigraph(2 * len(edges))
		for _, ed := range edges {
			g.AddArc(idx(ed.Waiter, ed.WaiterPrio), idx(ed.Holder, ed.HolderPrio))
		}
		if cyc := g.FindCycle(); cyc != nil {
			victim := cyc[0]
			for _, v := range cyc[1:] {
				if prio[v] > prio[victim] {
					victim = v
				}
			}
			e.detects.Add(1)
			e.signalAbort(order[victim])
			// Prompt delivery: also wake the victim's parked Acquires
			// through the table. The abort channel covers sessions that
			// are between operations (and the request-not-yet-queued
			// race); Wound covers the common case — the victim is parked
			// in a lock wait that is part of the cycle. The wound targets
			// the attempt key from the snapshot, so if it lands after the
			// victim already aborted and retried at the next epoch it is
			// a no-op, never a spurious wound of the healthy retry. Safe
			// here: the detector goroutine holds no table locks.
			e.table.Wound(keyOf[order[victim]])
		}
	}
}
