package distlock

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distlock/internal/admission"
	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
	"distlock/internal/runtime"
)

// ErrServiceClosed is returned by operations on a closed LockService.
var ErrServiceClosed = runtime.ErrClosed

// RegisterResult reports one Register decision; it is the admission
// service's Result. Admitted means the class joined the certified tier and
// its sessions run with NO deadlock handling; otherwise the class is
// pinned to the two-phase fallback tier and Reason/Violation explain why.
type RegisterResult = admission.Result

// ServiceOption configures Open.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	cycleBudget  int64
	multiplicity int
	// certTable builds the certified tier's lock table, counting into the
	// bundle cfg names: newSharded, unless WithRemoteTable or
	// WithRemoteCluster dials one. Its table is unused when it fails.
	certTable   func(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error)
	pipeline    int
	traceSample int
}

// WithCycleBudget bounds the Theorem 4 cycles certified for a single
// Register (0 = unlimited), counted over the multiplicity's copies of each
// class: a class whose certification would exceed the budget is rejected
// conservatively to the fallback tier, so the budget trades admission rate
// for bounded registration latency, never correctness.
func WithCycleBudget(n int64) ServiceOption {
	return func(c *serviceConfig) { c.cycleBudget = n }
}

// WithMultiplicity certifies every class for m concurrent sessions
// (default 1). Begin enforces the bound on the certified tier: the m+1-th
// concurrent session of a class blocks until one of its siblings commits
// or aborts. Higher multiplicity admits fewer classes (two copies of one
// class can deadlock each other — the paper's Corollary 3) but serves more
// parallel traffic per class.
func WithMultiplicity(m int) ServiceOption {
	return func(c *serviceConfig) { c.multiplicity = m }
}

// WithRemoteTable puts the certified tier on a cross-process lock table: a
// dlserver at addr hosting the same database (the connection handshake
// verifies a fingerprint). Several service processes pointed at one
// dlserver then contend for the same certified-tier locks — the paper's
// distributed sites made literal — with the server's lease/fencing
// machinery guaranteeing that a crashed process's locks are revoked and
// its late releases rejected. The two-phase fallback tier stays on a
// process-local sharded table: rejected classes are this process's private
// traffic, not part of the shared certified mix.
func WithRemoteTable(addr string) ServiceOption {
	return func(c *serviceConfig) {
		c.certTable = func(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error) {
			return netlock.Dial(addr, ddb, cfg, netlock.DialOptions{})
		}
	}
}

// WithRemoteCluster puts the certified tier on a partitioned lock space:
// each entity is hash-routed to exactly one of the dlservers at addrs,
// so K independent servers jointly serve one certified lock space with
// no cross-server coordination — static certification is exactly the
// proof that per-entity ordering suffices, restated at fleet scale.
// Every server must host the same database (each connection handshake
// verifies a fingerprint), and every client process must pass the same
// addresses in the same order (the list order decides entity ownership).
// Each server remains the sole lease/fencing authority for its
// partition; losing one degrades that slice of the entity space to
// lease-expiry errors while the rest keep granting. As with
// WithRemoteTable, the two-phase fallback tier stays on a process-local
// sharded table: rejected classes are this process's private traffic, not
// part of the shared certified mix.
func WithRemoteCluster(addrs ...string) ServiceOption {
	return func(c *serviceConfig) {
		c.certTable = func(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error) {
			return cluster.New(ddb, cfg, addrs, cluster.Options{})
		}
	}
}

// newSharded is the certified tier's default table constructor: the
// in-process sharded table.
func newSharded(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error) {
	return locktable.NewSharded(ddb, cfg), nil
}

// WithPipelineDepth lets certified-tier sessions on a wire backend
// (WithRemoteTable, WithRemoteCluster) keep up to depth unacknowledged
// lock acquisitions in flight: Lock ships the request and returns
// immediately, Unlock fires a receipt-free release without waiting even
// for that lock's own ack, and any error a pipelined operation hits
// surfaces at a later session call (at Commit at the latest, which
// returns only once every lock was granted). Static certification is what makes this sound — a certified
// chain cannot deadlock, so shipping lock k+1 before lock k's ack returns
// changes only latency, never the set of reachable lock-table states (the
// server applies one session's acquires strictly in submission order).
// The two-phase fallback tier never pipelines: its classes carry no such
// proof, and it runs on an in-process table. Zero
// (the default) keeps every Lock synchronous — Unlock on a wire backend
// still returns without waiting for the server, with Commit joining its
// receipt (see Session.Unlock); in-process backends ignore the knob.
func WithPipelineDepth(depth int) ServiceOption {
	return func(c *serviceConfig) { c.pipeline = depth }
}

// WithTraceSampling turns on sampled end-to-end operation tracing on
// both tiers: each session samples one in every `every` of its Lock
// calls (and of its Unlock calls on the in-process table), starting at a
// staggered offset so short sessions still sample at that aggregate
// rate. A sampled acquisition is stamped through the full waterfall —
// session submit, client-queue enqueue, wire flush, server pickup, chain
// start, table grant, reply enqueue/flush, and completion wakeup — into
// a fixed lossy ring plus per-stage histograms, all readable through
// Stats (TierStats.TraceStages) and SlowestSpans. The histograms hold
// acquisitions only, so their "total" row is sampled Lock latency on every
// backend; a sampled in-process Unlock reaches the ring (SlowestSpans)
// only.
// On in-process backends only the submit/grant/wakeup stages exist; on
// wire backends the server stages travel back as clock-skew-free
// durations piggybacked on the grant reply. every <= 0 selects the
// default rate (1 in 64). Unsampled operations pay one predicted branch;
// sampling never disarms the sharded table's shared-mode CAS fast path.
func WithTraceSampling(every int) ServiceOption {
	return func(c *serviceConfig) {
		if every <= 0 {
			every = runtime.DefaultTraceSample
		}
		c.traceSample = every
	}
}

// LockService is the long-lived client-driven lock service: the paper's
// program ("certify the mix statically, then run with no deadlock
// handling") exposed as a live API.
//
//	svc, _ := distlock.Open(db)
//	defer svc.Close()
//	res, _ := svc.Register(ctx, t1)      // Theorem 3/4 admission
//	sess, _ := svc.Begin(ctx, "T1")
//	sess.Lock(ctx, "x", distlock.Shared) // readers overlap; writers exclude
//	sess.Unlock("x")
//	sess.LockExclusive(ctx, "y")         // the pre-mode shorthand
//	sess.Unlock("y")
//	sess.Commit()
//
// Register runs incremental Theorem 3/4 admission and pins the class to a
// tier: certified classes run with NO deadlock handling (the static
// certification guarantees they cannot deadlock), rejected classes run
// two-phase on a separate engine: a fallback session takes its class's
// whole entity set at its first Lock and never waits while it holds a
// lock, so it is serializable and needs no deadlock handling either. The
// two tiers run separate lock tables over the same entities, and nothing
// partitions the entities between them: locks exclude each other within
// a tier only, so a certified session and a fallback session can both
// hold one entity at the same time. Where the tiers must exclude each
// other, keep fallback classes off the certified classes' entities.
// Running both tiers on one table is the planned fix.
//
// Sessions enforce their class's partial order: each Lock/Unlock must
// correspond to a template operation whose predecessors have executed.
// All methods are safe for concurrent use; a single Session must be driven
// by one goroutine at a time.
type LockService struct {
	ddb       *model.DDB
	adm       *admission.Service
	mult      int
	certified *runtime.Engine
	fallback  *runtime.Engine
	// certMetrics and fallbackMetrics are the counter bundles the tiers'
	// lock tables were built with (TierStats.Table).
	certMetrics     *obs.TableMetrics
	fallbackMetrics *obs.TableMetrics

	begun atomic.Int64

	// regMu serializes Register/RegisterBatch end to end (validate, admit,
	// pin) so concurrent registrations of one name cannot race past the
	// duplicate check. Admission itself is serialized by the admission
	// service; this adds no contention to the session path, which takes
	// only mu, and only to look a class up.
	regMu sync.Mutex

	mu      sync.Mutex
	classes map[string]*svcClass
	closed  bool
	done    chan struct{}
}

// svcClass is one registered class pinned to its tier. On the certified
// tier, slots is the multiplicity semaphore and state one atomic word: the
// live-session count, plus the departed bit once Deregister has removed
// the class. Begin's slot step, Commit and Abort take no service mu.
type svcClass struct {
	txn       *model.Transaction
	certified bool
	slots     chan struct{}
	state     atomic.Int64
}

const departed = int64(1) << 62 // the svcClass.state bit Deregister sets

// Open starts a lock service over the database: an admission service plus
// the two engine tiers, all long-lived until Close.
func Open(ddb *DDB, opts ...ServiceOption) (*LockService, error) {
	if ddb == nil {
		return nil, fmt.Errorf("distlock: nil database")
	}
	cfg := serviceConfig{certTable: newSharded}
	for _, o := range opts {
		o(&cfg)
	}
	mult := cfg.multiplicity
	if mult <= 0 {
		mult = 1
	}
	// The certified table is dialled when an option put it on dlservers;
	// the fallback tier always runs on a sharded table of its own (see
	// LockService). Each engine owns its table from here on.
	certMetrics, fallbackMetrics := obs.NewTableMetrics(), obs.NewTableMetrics()
	certTable, err := cfg.certTable(ddb, locktable.Config{Metrics: certMetrics})
	if err != nil {
		return nil, err
	}
	certified, err := runtime.NewEngine(ddb, runtime.EngineOptions{
		Table:            certTable,
		PipelineDepth:    cfg.pipeline,
		TraceSampleEvery: cfg.traceSample,
	})
	if err != nil {
		return nil, err
	}
	fallback, err := runtime.NewEngine(ddb, runtime.EngineOptions{
		Table:            locktable.NewSharded(ddb, locktable.Config{Metrics: fallbackMetrics}),
		TraceSampleEvery: cfg.traceSample,
	})
	if err != nil {
		certified.Close()
		return nil, err
	}
	return &LockService{
		ddb: ddb,
		adm: admission.New(ddb, admission.Options{
			CycleBudget:  cfg.cycleBudget,
			Multiplicity: mult,
		}),
		mult:            mult,
		certified:       certified,
		fallback:        fallback,
		certMetrics:     certMetrics,
		fallbackMetrics: fallbackMetrics,
		classes:         map[string]*svcClass{},
		done:            make(chan struct{}),
	}, nil
}

// Register submits a transaction class. The admission decision — an
// incremental Theorem 3/4 certification against the live certified set,
// at the service's multiplicity — pins the class to the certified
// (no-deadlock-handling) or fallback (two-phase) tier; either way the
// class becomes Begin-able. Cancelling the context aborts the decision
// (the class is not registered) and returns ctx.Err().
func (s *LockService) Register(ctx context.Context, t *Transaction) (RegisterResult, error) {
	rs, err := s.RegisterBatch(ctx, []*Transaction{t})
	if err != nil {
		return RegisterResult{}, err
	}
	return rs[0], nil
}

// RegisterBatch registers k classes at once: the admission service
// resolves every uncached pair verdict the batch needs in a single wave,
// on the calling goroutine, then decides the classes in order — one rejected
// class never blocks the rest (it is pinned to the fallback tier like any
// rejected class). Batch decisions are identical to one-at-a-time
// decisions; batching only reduces registration latency.
func (s *LockService) RegisterBatch(ctx context.Context, ts []*Transaction) ([]RegisterResult, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	seen := map[string]bool{}
	for _, t := range ts {
		switch {
		case t == nil:
			s.mu.Unlock()
			return nil, fmt.Errorf("distlock: nil transaction class")
		case t.Name() == "":
			s.mu.Unlock()
			return nil, fmt.Errorf("distlock: class needs a name (it is the Begin key)")
		}
		if _, dup := s.classes[t.Name()]; dup || seen[t.Name()] {
			s.mu.Unlock()
			return nil, fmt.Errorf("distlock: class %q already registered", t.Name())
		}
		seen[t.Name()] = true
	}
	s.mu.Unlock()

	// Admission runs outside s.mu: the admission service serializes its own
	// decisions, and a slow Theorem 4 phase must not block Begin/Close.
	rs, err := s.adm.AdmitBatch(ctx, ts)
	if err != nil {
		// A cancellation can land mid-batch, after earlier classes already
		// joined the certified set. None of them were pinned, so evict
		// exactly those again (eviction never decertifies the rest): the
		// service stays consistent — registered ⟺ Begin-able. AdmitBatch
		// returns the decided prefix alongside the error; evicting only
		// those names cannot touch an unrelated live class that happens to
		// share a name with an undecided batch member.
		for _, r := range rs {
			if r.Admitted {
				s.adm.Evict(r.Class)
			}
		}
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Same consistency restoration as the error path: the classes
		// joined the admission set but will never be pinned, so take them
		// out again rather than leaving phantom certified classes visible
		// through Snapshot/Stats after Close.
		for _, r := range rs {
			if r.Admitted {
				s.adm.Evict(r.Class)
			}
		}
		return nil, ErrServiceClosed
	}
	for i, t := range ts {
		c := &svcClass{txn: t, certified: rs[i].Admitted}
		if c.certified {
			c.slots = make(chan struct{}, s.mult)
		}
		s.classes[t.Name()] = c
	}
	s.mu.Unlock()
	return rs, nil
}

// Classes returns the registered class names, sorted.
func (s *LockService) Classes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.classes))
	for name := range s.classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Deregister removes a class: future Begin calls fail, and
// a certified class leaves the live certified set (which stays certified —
// eviction only removes pairs and cycles). Sessions already begun run to
// completion; while any of them are live the class remains in the
// admission interference set (they hold locks on the no-deadlock-handling
// engine, so later Register decisions must still be checked against it —
// the class's name stays occupied there until the last session closes).
// It reports whether the class was registered.
//
// Eviction happens exactly once. Only the Deregister that removed the
// class from the map sets departed, and from then on no Begin raises the
// live count (join CASes count+1 only on a word without departed), so the
// count falls monotonically to zero. If it was zero when departed was set,
// Deregister evicts and no release can return the bare departed bit;
// otherwise exactly one release takes the count from 1 to 0, gets back
// the bare departed bit, and evicts.
func (s *LockService) Deregister(name string) bool {
	// Serialize with Register/RegisterBatch, or a concurrent Register of
	// the same name could see it free here but still occupied in the
	// admission service, and get a stale "already admitted" rejection.
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.mu.Lock()
	c, ok := s.classes[name]
	delete(s.classes, name)
	s.mu.Unlock()
	if ok && c.certified && c.state.Or(departed) == 0 {
		s.adm.Evict(name)
	}
	return ok
}

// Begin opens a session for one instance of the registered class. On the
// certified tier Begin enforces the service's multiplicity — the bound the
// class was certified for — by blocking until a per-class slot frees (or
// the context is cancelled). A fallback session is two-phase: its first
// Lock acquires the class's whole entity set (see Session.Lock).
func (s *LockService) Begin(ctx context.Context, class string) (*Session, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	c, ok := s.classes[class]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("distlock: class %q not registered", class)
	}
	engine := s.fallback
	if c.certified {
		engine = s.certified
		// A free slot is taken without the three-way select, which locks
		// every channel it names: s.done is shared by every client.
		select {
		case c.slots <- struct{}{}:
		default:
			select {
			case c.slots <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-s.done:
				return nil, ErrServiceClosed
			}
		}
		// A Deregister after Begin's lookup either finds this session
		// counted and defers its eviction, or has set departed: then the
		// class may already be evicted, so this session must not start.
		if !c.join() {
			<-c.slots
			return nil, fmt.Errorf("distlock: class %q no longer registered", c.txn.Name())
		}
	}
	sess := &Session{svc: s, class: c}
	if err := engine.BeginAt(&sess.inner, c.txn, !c.certified); err != nil {
		if c.certified {
			s.releaseSlot(c)
		}
		return nil, err
	}
	s.begun.Add(1)
	return sess, nil
}

// join counts one more live session unless the class has departed.
func (c *svcClass) join() bool {
	old := c.state.Load()
	for old&departed == 0 && !c.state.CompareAndSwap(old, old+1) {
		old = c.state.Load()
	}
	return old&departed == 0
}

// releaseSlot ends one certified session of c, evicting c from the
// admission set if it departed and this was its last live session.
func (s *LockService) releaseSlot(c *svcClass) {
	if c.state.Add(-1) == departed {
		s.adm.Evict(c.txn.Name())
	}
	<-c.slots
}

// Snapshot returns the current certified set as an immutable transaction
// system (safe to use after further churn).
func (s *LockService) Snapshot() *System { return s.adm.Snapshot() }

// Multiplicity returns the per-class session concurrency the certified
// tier is certified (and enforced) for.
func (s *LockService) Multiplicity() int { return s.mult }

// TierStats are one engine tier's cumulative counters: the session-level
// tallies (commits, aborts, certified-pipelined vs synchronous
// operations) plus the tier's lock-table counter bundle and — when the
// service was opened WithTraceSampling — the sampled Lock latency,
// stage by stage.
type TierStats struct {
	runtime.Counters
	// Table is the tier's lock-table counter bundle. Grants−Releases is
	// the number of lock records currently held through this tier;
	// FastHits+SlowShared equals the shared grants.
	Table obs.TableCounters `json:"table"`
	// TraceStages are the per-stage latency histograms, in nanoseconds,
	// of the tier's sampled Lock calls: "total" first, then each stamped
	// stage. It is the service's one lock-latency instrument, and "total"
	// is sampled Lock latency on every backend (sampled in-process Unlock
	// spans reach SlowestSpans only). Nil unless the service was opened
	// WithTraceSampling.
	TraceStages []obs.StageLatency `json:"trace_stages,omitempty"`
}

// ServiceStats snapshots the service's counters: the admission service's
// cumulative work and decisions, both engine tiers, and the number of
// sessions begun. Conservation: every begun session ends in exactly one
// commit, abort or discard (a session ended by Close), so after all
// sessions close, Begun == Certified.Commits+Certified.Aborts+
// Certified.Discarded+Fallback.Commits+Fallback.Aborts+Fallback.Discarded.
type ServiceStats struct {
	Admission AdmissionStats `json:"admission"`
	Certified TierStats      `json:"certified"`
	Fallback  TierStats      `json:"fallback"`
	Begun     int64          `json:"begun"`
}

func tierStats(e *runtime.Engine, m *obs.TableMetrics) TierStats {
	return TierStats{
		Counters:    e.Counters(),
		Table:       m.Snapshot(),
		TraceStages: e.StageLatency(),
	}
}

// Stats returns a snapshot of the service's counters. Every field is read
// with atomic loads from state that outlives the engines, so Stats is safe
// on a live service, concurrently with Close, and after Close.
func (s *LockService) Stats() ServiceStats {
	return ServiceStats{
		Admission: s.adm.Stats(),
		Certified: tierStats(s.certified, s.certMetrics),
		Fallback:  tierStats(s.fallback, s.fallbackMetrics),
		Begun:     s.begun.Load(),
	}
}

// SlowestSpans returns the n slowest sampled operation traces currently
// held in the two tiers' span rings, slowest first. Empty unless the
// service was opened WithTraceSampling. The rings are lossy and
// fixed-size, so this is "slowest recently", not "slowest ever".
func (s *LockService) SlowestSpans(n int) []obs.SpanRecord {
	var recs []obs.SpanRecord
	if r := s.certified.Spans(); r != nil {
		recs = append(recs, r.Spans()...)
	}
	if r := s.fallback.Spans(); r != nil {
		recs = append(recs, r.Spans()...)
	}
	return obs.TopSpansByTotal(recs, n)
}

// Close shuts the service down: both engine tiers stop and session
// operations blocked in them return ErrServiceClosed. Locks still held by
// open sessions die with the lock tables. Close is idempotent.
func (s *LockService) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return nil
	}
	close(s.done)
	s.certified.Close()
	s.fallback.Close()
	return nil
}

// Session is a client-driven transaction instance on one of the service's
// tiers; create with LockService.Begin. It enforces the registered class's
// partial order and must end in exactly one Commit or Abort. A Session is
// driven by one goroutine at a time.
//
// A Session is only ever handled by pointer: it embeds its engine session
// by value, so that a transaction costs one allocation, and that engine
// session must not be copied (see runtime.Session).
type Session struct {
	svc   *LockService
	class *svcClass
	// released records that the session gave back its multiplicity slot.
	// A plain bool: a session is driven by one goroutine at a time.
	released bool
	inner    runtime.Session
}

// release gives back the session's certified-tier multiplicity slot, once
// (fallback sessions hold none).
func (s *Session) release() {
	if s.released || !s.class.certified {
		return
	}
	s.released = true
	s.svc.releaseSlot(s.class)
}

// Class returns the name of the class the session instantiates.
func (s *Session) Class() string { return s.class.txn.Name() }

// Template returns the registered class program the session is pinned to:
// clients read it (Order, Node) to drive their operations in an order the
// partial order allows.
func (s *Session) Template() *Transaction { return s.class.txn }

// ID returns the session's instance id on its tier.
func (s *Session) ID() int { return s.inner.ID() }

// Certified reports whether the session runs on the certified
// (no-deadlock-handling) tier.
func (s *Session) Certified() bool { return s.class.certified }

// Held returns the names of the entities the session currently holds.
// Under WithPipelineDepth it also lists certified entities whose acquire
// is still in flight: Lock counted them held when it shipped them.
func (s *Session) Held() []string {
	ids := s.inner.Held()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.svc.ddb.EntityName(id)
	}
	return out
}

// Lock acquires the entity in the given mode, blocking until the lock
// table grants it: Shared grants overlap with other readers, Exclusive
// excludes everyone. The mode must be the one the registered class
// template declares for the entity — the admission decision certified
// exactly the template's modes, so a mismatch (upgrading a certified read
// to a write, or vice versa) is rejected without touching the table.
// Lock returns promptly with ctx.Err() if the context is cancelled while
// waiting (the request is withdrawn first — no lock is held on return)
// and with ErrServiceClosed after Close. After a cancellation the session
// remains usable and the Lock may be retried. No session is ever aborted
// by the service.
//
// On the fallback tier the first Lock acquires the class's whole entity
// set, in the template's modes, and the later ones only record their
// operation: the session is two-phase whatever the class's order, and it
// never waits while it holds a lock (it releases what it got, waits for
// the one entity it missed, then tries again). Held lists the whole set
// from the first Lock on. Such a session can wait long behind hot
// certified traffic; that is the price of a class that is not certified.
//
// Under WithPipelineDepth a certified session's Lock on a wire backend
// ships the request and returns before the server grants it: nil means
// submitted, not held. The grant is confirmed only when a later Lock
// joins it or at Commit, so caller code between Lock and Unlock runs
// with no lock known to be held, and a failed grant surfaces at a later
// call (at Commit at the latest), after which the session must Abort.
func (s *Session) Lock(ctx context.Context, entity string, mode Mode) error {
	id, ok := s.svc.ddb.Entity(entity)
	if !ok {
		return fmt.Errorf("distlock: unknown entity %q", entity)
	}
	return s.inner.Lock(ctx, id, mode)
}

// LockExclusive is the exclusive-mode shorthand — Lock(ctx, entity,
// Exclusive) — compatible with the pre-mode API, where every lock was a
// write lock.
func (s *Session) LockExclusive(ctx context.Context, entity string) error {
	return s.Lock(ctx, entity, Exclusive)
}

// LockShared is the shared-mode shorthand: Lock(ctx, entity, Shared).
func (s *Session) LockShared(ctx context.Context, entity string) error {
	return s.Lock(ctx, entity, Shared)
}

// Unlock releases a held entity (granting it to its next waiter). On a
// wire backend (WithRemoteTable, WithRemoteCluster) Unlock returns once
// the release is on its way to the server, and Commit waits for it: a
// release that fails (a revoked lease, a lost server) fails this
// session's Commit rather than this call. Under WithPipelineDepth the
// release may ship before the entity's own acquire has been granted; the
// server runs it after that grant.
func (s *Session) Unlock(entity string) error {
	id, ok := s.svc.ddb.Entity(entity)
	if !ok {
		return fmt.Errorf("distlock: unknown entity %q", entity)
	}
	return s.inner.Unlock(id)
}

// Commit closes the session after a complete run of the class program
// (every operation of the class executed, all locks released). On a wire
// backend it first waits for the session's releases to be executed; if
// one failed, Commit returns its error (ErrServiceClosed once the service
// is closed or a WithRemoteTable server is gone) and the session stays
// open — call Abort. Under WithPipelineDepth Commit also waits for every
// in-flight acquire: a nil Commit is the first point at which a
// pipelined session knows each of its locks was granted.
func (s *Session) Commit() error {
	if err := s.inner.Commit(); err != nil {
		return err
	}
	s.release()
	return nil
}

// Abort closes the session, releasing everything it holds. Abort is
// idempotent, and a no-op on a committed session.
func (s *Session) Abort() error {
	err := s.inner.Abort()
	s.release()
	return err
}

// Drive executes the session's entire class program in one call: every
// operation in a linear extension of the class's partial order, then
// Commit. Any failure — an operation's or Commit's — aborts the session
// before the error is returned, so the session is always closed on
// return; on context cancellation the error is ctx.Err(). Clients that
// interleave work between operations drive the session manually instead.
func (s *Session) Drive(ctx context.Context) error { return s.DriveHold(ctx, 0) }

// DriveHold is Drive with a pause after each granted lock, widening the
// conflict window (simulated work / network latency) — the load drivers
// and stress tests use it.
func (s *Session) DriveHold(ctx context.Context, hold time.Duration) error {
	t := s.class.txn
	for _, nid := range t.Order() {
		nd := t.Node(nid)
		var err error
		if nd.Kind == model.LockOp {
			err = s.inner.Lock(ctx, nd.Entity, nd.Mode)
		} else {
			err = s.inner.Unlock(nd.Entity)
		}
		if err != nil {
			s.Abort()
			return err
		}
		if nd.Kind == model.LockOp && hold > 0 {
			select {
			case <-time.After(hold):
			case <-ctx.Done():
				s.Abort()
				return ctx.Err()
			}
		}
	}
	if err := s.Commit(); err != nil {
		s.Abort()
		return err
	}
	return nil
}
