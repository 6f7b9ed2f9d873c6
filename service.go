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

// ErrSessionDone is returned by Lock, Unlock, Commit and Drive on a
// session that has already committed or aborted.
var ErrSessionDone = runtime.ErrSessionDone

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
	// table builds the service's one lock table, counting into the bundle
	// cfg names: newSharded, unless WithRemoteTable or WithRemoteCluster
	// dials one. Its table is unused when it fails.
	table       func(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error)
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

// WithRemoteTable puts both tiers on a cross-process lock table: a
// dlserver at addr hosting the same database (the connection handshake
// verifies a fingerprint). Several service processes pointed at one
// dlserver then contend for the same locks — the paper's distributed
// sites made literal — with the server's lease/fencing machinery
// guaranteeing that a crashed process's locks are revoked and its late
// releases rejected. Fallback sessions take their entity sets through the
// server's non-blocking try, so they exclude every other process's
// sessions, certified or not.
func WithRemoteTable(addr string) ServiceOption {
	return func(c *serviceConfig) {
		c.table = func(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error) {
			return netlock.Dial(addr, ddb, cfg, netlock.DialOptions{})
		}
	}
}

// WithRemoteCluster puts both tiers on a partitioned lock space: each
// entity is hash-routed to exactly one of the dlservers at addrs, so K
// independent servers jointly serve one lock space with no cross-server
// coordination — static certification is exactly the
// proof that per-entity ordering suffices, restated at fleet scale.
// Every server must host the same database (each connection handshake
// verifies a fingerprint), and every client process must pass the same
// addresses in the same order (the list order decides entity ownership).
// Each server remains the sole lease/fencing authority for its
// partition; losing one degrades that slice of the entity space to
// lease-expiry errors while the rest keep granting. A fallback session
// tries each entity at its owning partition.
func WithRemoteCluster(addrs ...string) ServiceOption {
	return func(c *serviceConfig) {
		c.table = func(ddb *model.DDB, cfg locktable.Config) (locktable.Table, error) {
			return cluster.New(ddb, cfg, addrs, cluster.Options{})
		}
	}
}

// newSharded is the default table constructor: the in-process sharded
// table.
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
// proof, so its sessions take the synchronous path. Zero
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
// two-phase: a fallback session takes its class's whole entity set at its
// first Lock and never waits while it holds a lock, so it is serializable
// and needs no deadlock handling either. Both tiers run on one engine and
// one lock table, so their locks exclude each other (see Register for
// what the tiers guarantee together).
//
// Sessions enforce their class's partial order: each Lock/Unlock must
// correspond to a template operation whose predecessors have executed.
// All methods are safe for concurrent use; a single Session must be driven
// by one goroutine at a time.
type LockService struct {
	ddb    *model.DDB
	adm    *admission.Service
	mult   int
	engine *runtime.Engine
	// metrics is the counter bundle the lock table was built with
	// (TierStats.Table).
	metrics *obs.TableMetrics

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
	// left, made by a Begin that waits for a free slot, is closed by the
	// next Deregister.
	left chan struct{}
}

// svcClass is one registered class pinned to its tier. On the certified
// tier, slots is the multiplicity semaphore and state one atomic word: the
// live-session count, plus the departed bit once Deregister has removed
// the class. Begin's slot step, Commit and Abort take no service mu.
// spare is the state the class's last ended session left for its next
// Begin.
type svcClass struct {
	txn   *model.Transaction
	slots chan struct{} // nil on the fallback tier
	state atomic.Int64
	spare atomic.Pointer[sessionState]
}

// certified reports whether c runs on the certified tier.
func (c *svcClass) certified() bool { return c.slots != nil }

const departed = int64(1) << 62 // the svcClass.state bit Deregister sets

// Open starts a lock service over the database: an admission service plus
// one engine over one lock table, which both tiers share, all long-lived
// until Close. The table serves the entities ddb has when Open runs: add
// every entity first, since a Lock of one added later fails.
func Open(ddb *DDB, opts ...ServiceOption) (*LockService, error) {
	if ddb == nil {
		return nil, fmt.Errorf("distlock: nil database")
	}
	cfg := serviceConfig{table: newSharded}
	for _, o := range opts {
		o(&cfg)
	}
	mult := cfg.multiplicity
	if mult <= 0 {
		mult = 1
	}
	// The table is dialled when an option put it on dlservers; the engine
	// owns it from here on.
	metrics := obs.NewTableMetrics()
	table, err := cfg.table(ddb, locktable.Config{Metrics: metrics})
	if err != nil {
		return nil, err
	}
	engine, err := runtime.NewEngine(ddb, runtime.EngineOptions{
		Table:            table,
		PipelineDepth:    cfg.pipeline,
		TraceSampleEvery: cfg.traceSample,
	})
	if err != nil {
		return nil, err
	}
	return &LockService{
		ddb: ddb,
		adm: admission.New(ddb, admission.Options{
			CycleBudget:  cfg.cycleBudget,
			Multiplicity: mult,
		}),
		mult:    mult,
		engine:  engine,
		metrics: metrics,
		classes: map[string]*svcClass{},
		done:    make(chan struct{}),
	}, nil
}

// Register submits a transaction class. The admission decision — an
// incremental Theorem 3/4 certification against the live certified set,
// at the service's multiplicity — pins the class to the certified
// (no-deadlock-handling) or fallback (two-phase) tier; either way the
// class becomes Begin-able. Cancelling the context aborts the decision
// (the class is not registered) and returns ctx.Err().
//
// What the tiers guarantee together: mutual exclusion, because both run
// on the one lock table, and deadlock freedom, because a fallback session
// never waits while it holds a lock, so every waits-for cycle would be a
// cycle of certified sessions, which the certification excludes. They do
// not yet guarantee serializability across tiers: a certified class that
// is not two-phase (Lx Ux Ly Uy) can release x, let a fallback session
// over {x, y} run in between, and lock y after it. Admission checks
// certified classes only against each other.
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
		c := &svcClass{txn: t}
		if rs[i].Admitted {
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

// Deregister removes a class: future Begin calls fail, as do the ones
// waiting for a free slot, and a certified class leaves the live certified
// set (which stays certified — eviction only removes pairs and cycles).
// Sessions already begun run to completion; while any of them are live
// the class remains in the admission interference set (they hold locks on
// the no-deadlock-handling engine, so later Register decisions must still
// be checked against it — the class's name stays occupied there until the
// last session closes). It reports whether the class was registered.
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
	if ok && s.left != nil {
		close(s.left)
		s.left = nil
	}
	s.mu.Unlock()
	if ok && c.certified() && c.state.Or(departed) == 0 {
		s.adm.Evict(name)
	}
	return ok
}

// Begin opens a session for one instance of the registered class. On the
// certified tier Begin enforces the service's multiplicity — the bound the
// class was certified for — by blocking until a per-class slot frees (or
// the context is cancelled, the class is deregistered or the service
// closes). A fallback session is two-phase: its first Lock acquires the
// class's whole entity set (see Session.Lock).
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
	if c.certified() {
		// A free slot is taken without the waiting select, which locks
		// every channel it names: s.done is shared by every client.
		select {
		case c.slots <- struct{}{}:
		default:
			if err := s.waitSlot(ctx, c); err != nil {
				return nil, err
			}
		}
		// A Deregister after Begin's lookup either finds this session
		// counted and defers its eviction, or has set departed: then the
		// class may already be evicted, so this session must not start.
		if !c.join() {
			<-c.slots
			return nil, errDeparted(c)
		}
	}
	st := c.spare.Swap(nil)
	if st == nil {
		st = new(sessionState)
	}
	if err := s.engine.BeginAt(&st.inner, c.txn, !c.certified()); err != nil {
		c.spare.Store(st) // BeginAt fails before it writes the session
		if c.certified() {
			s.releaseSlot(c)
		}
		return nil, err
	}
	st.svc = s
	s.begun.Add(1)
	return &Session{st: st, gen: st.gen.Load(), class: c, id: st.inner.ID()}, nil
}

// waitSlot blocks a Begin on c's full slots until one frees, the context
// ends, the service closes or Deregister removes c. Every Deregister
// closes s.left, so the Begins waiting on other classes look again and
// wait on.
func (s *LockService) waitSlot(ctx context.Context, c *svcClass) error {
	for {
		s.mu.Lock()
		if s.classes[c.txn.Name()] != c {
			s.mu.Unlock()
			return errDeparted(c)
		}
		if s.left == nil {
			s.left = make(chan struct{})
		}
		left := s.left
		s.mu.Unlock()
		select {
		case c.slots <- struct{}{}:
			return nil
		case <-left:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return ErrServiceClosed
		}
	}
}

func errDeparted(c *svcClass) error {
	return fmt.Errorf("distlock: class %q no longer registered", c.txn.Name())
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

// TierStats are one tier's cumulative counters: the session-level tallies
// (commits, aborts, certified-pipelined vs synchronous operations) plus,
// on the certified block only, the service's lock-table counter bundle
// and — when the service was opened WithTraceSampling — the sampled Lock
// latency, stage by stage.
type TierStats struct {
	runtime.Counters
	// Table is the counter bundle of the lock table both tiers share; the
	// Certified block carries it and the Fallback block's stays zero.
	// Grants−Releases is the number of lock records currently held;
	// FastHits+SlowShared equals the shared grants.
	Table obs.TableCounters `json:"table"`
	// TraceStages are the per-stage latency histograms, in nanoseconds,
	// of both tiers' sampled Lock calls: "total" first, then each stamped
	// stage. The Certified block carries them. It is the service's one
	// lock-latency instrument, and "total" is sampled Lock latency on
	// every backend (sampled in-process Unlock spans reach SlowestSpans
	// only). Nil unless the service was opened WithTraceSampling.
	TraceStages []obs.StageLatency `json:"trace_stages,omitempty"`
}

// ServiceStats snapshots the service's counters: the admission service's
// cumulative work and decisions, both tiers, and the number of sessions
// begun. Conservation: every begun session ends in exactly one
// commit, abort or discard (a session ended by Close), so after all
// sessions close, Begun == Certified.Commits+Certified.Aborts+
// Certified.Discarded+Fallback.Commits+Fallback.Aborts+Fallback.Discarded.
type ServiceStats struct {
	Admission AdmissionStats `json:"admission"`
	Certified TierStats      `json:"certified"`
	Fallback  TierStats      `json:"fallback"`
	Begun     int64          `json:"begun"`
}

// Stats returns a snapshot of the service's counters. Every field is read
// with atomic loads from state that outlives the engines, so Stats is safe
// on a live service, concurrently with Close, and after Close.
func (s *LockService) Stats() ServiceStats {
	return ServiceStats{
		Admission: s.adm.Stats(),
		Certified: TierStats{
			Counters:    s.engine.ModeCounters(false),
			Table:       s.metrics.Snapshot(),
			TraceStages: s.engine.StageLatency(),
		},
		Fallback: TierStats{Counters: s.engine.ModeCounters(true)},
		Begun:    s.begun.Load(),
	}
}

// SlowestSpans returns the n slowest sampled operation traces currently
// held in the engine's span ring, slowest first. Empty unless the service
// was opened WithTraceSampling. The ring is lossy and fixed-size, so this
// is "slowest recently", not "slowest ever".
func (s *LockService) SlowestSpans(n int) []obs.SpanRecord {
	r := s.engine.Spans()
	if r == nil {
		return nil
	}
	return obs.TopSpansByTotal(r.Spans(), n)
}

// Close shuts the service down: the engine stops and session operations
// blocked in it return ErrServiceClosed. Locks still held by open sessions
// die with the lock table. Close is idempotent.
func (s *LockService) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return nil
	}
	close(s.done)
	s.engine.Close()
	return nil
}

// Session is a client-driven transaction instance of one of the service's
// tiers; create with LockService.Begin. It enforces the registered class's
// partial order and must end in exactly one Commit or Abort. A Session is
// driven by one goroutine at a time.
//
// A Session is a small handle. The session's state, with its engine
// session embedded, is recycled: when the session commits or aborts it
// becomes its class's spare, which the class's next Begin draws, so a
// transaction costs one 32-byte allocation. Each method first compares
// the handle's generation with the state's: once they differ the session
// has ended, and the handle answers without touching the state, which
// another session may already be using.
type Session struct {
	st    *sessionState
	gen   uint64
	class *svcClass
	id    int
}

// sessionState is a live session's state. gen counts the sessions that
// have ended on it; every other field is zero while it is a spare.
type sessionState struct {
	gen   atomic.Uint64
	svc   *LockService
	inner runtime.Session
}

// live returns the session's state, or nil once the session has ended.
// The generation is the one word an ended handle reads.
func (s *Session) live() *sessionState {
	if s.st.gen.Load() != s.gen {
		return nil
	}
	return s.st
}

// end closes the session: the generation moves on so the handle reads
// ended, the state, zeroed in place, becomes the class's spare, and the
// certified-tier multiplicity slot goes back (fallback sessions hold none).
func (s *Session) end(st *sessionState) {
	svc := st.svc
	st.gen.Add(1)
	st.svc = nil
	st.inner = runtime.Session{}
	s.class.spare.Store(st)
	if s.class.certified() {
		svc.releaseSlot(s.class)
	}
}

// Class returns the name of the class the session instantiates.
func (s *Session) Class() string { return s.class.txn.Name() }

// Template returns the registered class program the session is pinned to:
// clients read it (Order, Node) to drive their operations in an order the
// partial order allows.
func (s *Session) Template() *Transaction { return s.class.txn }

// ID returns the session's instance id, unique across both tiers.
func (s *Session) ID() int { return s.id }

// Certified reports whether the session runs on the certified
// (no-deadlock-handling) tier.
func (s *Session) Certified() bool { return s.class.certified() }

// Held returns the names of the entities the session currently holds:
// none once it has ended. Under WithPipelineDepth it also lists certified
// entities whose acquire is still in flight: Lock counted them held when
// it shipped them.
func (s *Session) Held() []string {
	st := s.live()
	if st == nil {
		return []string{}
	}
	ids := st.inner.Held()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = st.svc.ddb.EntityName(id)
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
// Its locks exclude the certified tier's, on every backend.
//
// Under WithPipelineDepth a certified session's Lock on a wire backend
// ships the request and returns before the server grants it: nil means
// submitted, not held. The grant is confirmed only when a later Lock
// joins it or at Commit, so caller code between Lock and Unlock runs
// with no lock known to be held, and a failed grant surfaces at a later
// call (at Commit at the latest), after which the session must Abort.
func (s *Session) Lock(ctx context.Context, entity string, mode Mode) error {
	st := s.live()
	if st == nil {
		return ErrSessionDone
	}
	id, ok := st.svc.ddb.Entity(entity)
	if !ok {
		return fmt.Errorf("distlock: unknown entity %q", entity)
	}
	return st.inner.Lock(ctx, id, mode)
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
	st := s.live()
	if st == nil {
		return ErrSessionDone
	}
	id, ok := st.svc.ddb.Entity(entity)
	if !ok {
		return fmt.Errorf("distlock: unknown entity %q", entity)
	}
	return st.inner.Unlock(id)
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
	st := s.live()
	if st == nil {
		return ErrSessionDone
	}
	if err := st.inner.Commit(); err != nil {
		return err
	}
	s.end(st)
	return nil
}

// Abort closes the session, releasing everything it holds. Abort is
// idempotent, and a no-op on a committed session.
func (s *Session) Abort() error {
	st := s.live()
	if st == nil {
		return nil
	}
	err := st.inner.Abort()
	s.end(st)
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
	st := s.live()
	if st == nil {
		return ErrSessionDone
	}
	t := s.class.txn
	for _, nid := range t.Order() {
		nd := t.Node(nid)
		var err error
		if nd.Kind == model.LockOp {
			err = st.inner.Lock(ctx, nd.Entity, nd.Mode)
		} else {
			err = st.inner.Unlock(nd.Entity)
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
