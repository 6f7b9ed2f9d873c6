// Package runtime executes locked transactions on a true-concurrency
// distributed-database engine: a pluggable lock table (internal/locktable
// — hash-striped mutexes with a zero-hop fast path in process, or a wire
// client to a lock server), plus an optional global deadlock
// detector. It is the true-concurrency counterpart of the deterministic
// simulator in internal/sim.
//
// The engine exists to demonstrate the paper's program: a transaction mix
// certified safe-and-deadlock-free by the static tests (Theorems 3–5) runs
// correctly with NO deadlock handling at all, while uncertified mixes
// require detection or a priority scheme to make progress.
//
// The package has two layers:
//
//   - the session layer (NewEngine, Engine.Begin, Session.Lock / Unlock /
//     Commit / Abort): a long-lived engine serving externally-driven
//     transaction instances, with context cancellation propagated into
//     lock waits — the core of the public distlock.LockService;
//   - the batch layer (Run): replay a fixed template mix with N clients
//     and report Metrics. Run is implemented entirely on top of the
//     session layer; there is no second lock-grant code path.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// Strategy selects the engine's deadlock handling.
type Strategy int

const (
	// StrategyNone: no handling; safe only for certified mixes. An
	// uncertified mix may deadlock, which surfaces as ErrStalled.
	StrategyNone Strategy = iota
	// StrategyDetect: a global detector periodically snapshots the
	// wait-for graph and aborts the youngest transaction on each cycle.
	// In-process tables only: NewEngine rejects it on BackendRemote and
	// BackendCluster, whose shared lock space no detector covers.
	StrategyDetect
	// StrategyWoundWait: sites wound (abort) a younger lock holder when an
	// older transaction requests the entity.
	StrategyWoundWait
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "certified-none"
	case StrategyDetect:
		return "detection"
	case StrategyWoundWait:
		return "wound-wait"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ErrStalled is returned when the engine makes no progress for the
// configured stall timeout — the signature of an unhandled deadlock.
var ErrStalled = errors.New("runtime: engine stalled (deadlock with no handling?)")

// Config parameterizes a batch engine run (see Run): the engine's own
// options, embedded, plus the template driver's.
type Config struct {
	EngineOptions
	Templates     []*model.Transaction
	Clients       int
	TxnsPerClient int
	// StallTimeout: if no lock is granted and no transaction commits for
	// this long, the run is declared stalled. Default 250ms.
	StallTimeout time.Duration
	// HoldTime injects a delay after each granted lock before the client
	// issues its next operation, widening the conflict window (simulated
	// work / network latency). Zero means no delay. Delivered by a
	// high-resolution coalescing timer (see holdTimer): per-goroutine
	// time.After at this granularity is quantized by the parked-runtime
	// timer wake (~1ms), and unevenly so across backends.
	HoldTime time.Duration
	Seed     int64
}

// GrantEvent records that a transaction instance (at a given attempt
// epoch) was granted the lock on an entity. Per-entity order is the grant
// order at the owning site or stripe.
type GrantEvent = locktable.GrantEvent

// Metrics summarize an engine run.
type Metrics struct {
	Committed int
	Aborts    int
	Wounds    int
	Detected  int
	Elapsed   time.Duration
	// GrantLog per entity, in grant order (only with Table.Trace).
	GrantLog map[model.EntityID][]GrantEvent
	// CommitEpoch maps instance id -> the epoch at which it committed
	// (only with Table.Trace).
	CommitEpoch map[int]int
	// LockWait summarizes the wall time of every granted Session.Lock in
	// nanoseconds (only with MeasureLockWait; zeros otherwise).
	// Waits of attempts that ended in an abort are included: a wounded
	// transaction's queueing time is real latency its client saw.
	LockWait obs.HistogramSnapshot
	// HoldTime summarizes grant-to-release wall time in nanoseconds (only
	// with MeasureHoldTime; zeros otherwise).
	HoldTime obs.HistogramSnapshot
	// Table is the lock-table counter bundle of the run's engine: grants,
	// fast-path vs slow-path shared grants, releases, wounds, stripe
	// splits, queue-depth distribution.
	Table obs.TableCounters
	// Spans holds the sampled op waterfalls still resident in the engine's
	// span ring at run end, and TraceStages their per-stage gap
	// distributions across the whole run (only with TraceSampleEvery;
	// nil otherwise).
	Spans       []obs.SpanRecord
	TraceStages []obs.StageLatency
}

// Run executes the configured workload and returns metrics, or ErrStalled.
// It is a template driver over the session layer: each client begins a
// session per transaction instance and replays the template through
// Session.Lock/Unlock/Commit, retrying (with the same age priority) when
// the engine's deadlock handling aborts an attempt.
func Run(cfg Config) (*Metrics, error) {
	if len(cfg.Templates) == 0 {
		return nil, fmt.Errorf("runtime: no transaction templates")
	}
	if cfg.Clients < 1 || cfg.TxnsPerClient < 1 {
		return nil, fmt.Errorf("runtime: need at least one client and one transaction")
	}
	ddb := cfg.Templates[0].DDB()
	for _, t := range cfg.Templates {
		if t.DDB() != ddb {
			return nil, fmt.Errorf("runtime: templates span different databases")
		}
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 250 * time.Millisecond
	}
	e, err := NewEngine(ddb, cfg.EngineOptions)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	done := make(chan struct{})
	var clientWG sync.WaitGroup
	var nextID atomic.Int64
	for c := 0; c < cfg.Clients; c++ {
		clientWG.Add(1)
		go func(client int) {
			defer clientWG.Done()
			// Deterministic per-client generator: no shared-global rand
			// lock on the retry path.
			rng := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(client)*7919+1))
			tmpl := cfg.Templates[client%len(cfg.Templates)]
			for i := 0; i < cfg.TxnsPerClient; i++ {
				id := int(nextID.Add(1))
				if !e.runInstance(id, tmpl, rng, cfg.HoldTime) {
					return // engine stopping
				}
			}
		}(c)
	}
	go func() {
		clientWG.Wait()
		close(done)
	}()

	// Stall watchdog. Progress is a lock grant or a commit: the table's
	// grant counter plus the engine's commit counter, both kept anyway, so
	// the op path pays for no watchdog of its own. (A Table.Metrics bundle
	// shared with other tables counts their grants too.)
	stalled := false
	tick := cfg.StallTimeout / 8
	if tick <= 0 {
		tick = time.Millisecond
	}
	progress := func() int64 { return e.metrics.Snapshot().Grants + e.commits.Load() }
	last, lastChange := progress(), time.Now()
watch:
	for {
		select {
		case <-done:
			break watch
		case <-time.After(tick):
			if p := progress(); p != last {
				last, lastChange = p, time.Now()
			} else if time.Since(lastChange) > cfg.StallTimeout {
				stalled = true
				break watch
			}
		}
	}
	e.Close()
	clientWG.Wait()

	m := &Metrics{
		Committed:   int(e.commits.Load()),
		Aborts:      int(e.aborts.Load()),
		Wounds:      int(e.wounds.Load()),
		Detected:    int(e.detects.Load()),
		Elapsed:     time.Since(start),
		CommitEpoch: e.commitEp,
		LockWait:    e.LockWait(),
		HoldTime:    e.HoldTime(),
		Table:       e.metrics.Snapshot(),
	}
	if e.spans != nil {
		m.Spans = e.spans.Spans()
		m.TraceStages = e.StageLatency()
	}
	if cfg.Table.Trace {
		m.GrantLog = map[model.EntityID][]GrantEvent{}
		for _, ev := range e.table.GrantLog() {
			m.GrantLog[ev.Entity] = append(m.GrantLog[ev.Entity], ev)
		}
	}
	if stalled {
		return m, ErrStalled
	}
	return m, nil
}

// runInstance executes one transaction instance to commit, retrying after
// deadlock-handling aborts with the instance's original age priority (so a
// wounded transaction cannot starve under wound-wait). Returns false if
// the engine is stopping. Lock-wait samples land in the engine's
// histogram when MeasureLockWait armed it.
func (e *Engine) runInstance(id int, tmpl *model.Transaction, rng *rand.Rand, hold time.Duration) bool {
	prio := int64(id) // arrival order = age: smaller is older
	for epoch := 0; ; epoch++ {
		s := e.beginInstance(tmpl, id, epoch, prio)
		committed, stopping := e.driveOnce(s, rng, hold)
		if committed {
			return true
		}
		if stopping {
			return false
		}
		// Brief randomized backoff before retrying.
		select {
		case <-time.After(time.Duration(rng.IntN(200)+50) * time.Microsecond):
		case <-e.stop:
			return false
		}
	}
}

// driveOnce replays the template through one session attempt: repeatedly
// pick a random minimal unexecuted operation and execute it. Returns
// (committed, stopping); (false, false) means the attempt was aborted by
// deadlock handling and the caller should retry.
func (e *Engine) driveOnce(s *Session, rng *rand.Rand, hold time.Duration) (bool, bool) {
	for {
		ready := s.tmpl.MinimalNodes(&s.executed)
		if len(ready) == 0 {
			if err := s.Commit(); err != nil {
				s.Abort() // a discard if the commit failed with ErrClosed
				return false, errors.Is(err, ErrClosed)
			}
			return true, false
		}
		nid := ready[rng.IntN(len(ready))]
		nd := s.tmpl.Node(nid)
		var err error
		if nd.Kind == model.LockOp {
			// Session.Lock itself records the wait sample when
			// MeasureLockWait armed the engine's histogram.
			err = s.Lock(context.Background(), nd.Entity, nd.Mode)
		} else {
			err = s.Unlock(nd.Entity)
		}
		switch {
		case errors.Is(err, ErrAborted):
			s.Abort()
			return false, false
		case errors.Is(err, ErrClosed):
			s.discard()
			return false, true
		case err != nil:
			// Template-driven ops cannot violate the partial order; any
			// other error means the engine is shutting down inconsistently.
			s.Abort()
			return false, true
		}
		if nd.Kind == model.LockOp && hold > 0 {
			select {
			case <-e.holds.wait(hold):
			case <-s.Doomed():
				s.Abort()
				return false, false
			case <-e.stop:
				// Shutdown, not a transaction abort: don't count it.
				s.discard()
				return false, true
			}
		}
	}
}
