// Package admission is a long-lived admission-control service for locked
// transaction classes. It maintains a *live* certified set — a transaction
// system the static tests (Theorems 3 and 4) have proven safe and
// deadlock-free — and decides, online, whether newly submitted classes may
// join while keeping the whole mix certified.
//
// The paper's offline story is: certify a fixed system once, then run it
// with no deadlock handling at all. A production service sees arrivals and
// departures, and re-running SystemSafeDF from scratch on every admission
// repeats work that cannot have changed: Theorem 3 verdicts depend only on
// the two transactions of a pair, and a Theorem 4 cycle's verdict depends
// only on the transactions ON that cycle. The service therefore certifies
// incrementally:
//
//   - PairSafeDF verdicts are cached across the service's lifetime, keyed
//     by the unordered pair of the two classes' structural fingerprints
//     (each interned once to a dense id), so re-admission after churn costs
//     no pairwise work;
//   - after the pair phase, only interaction-graph cycles through the newly
//     added vertex are enumerated — cycles avoiding it were certified benign
//     when their own members were admitted;
//   - eviction only removes pairs and cycles, so it never needs re-checking.
//
// Because an engine runs many concurrent instances of each class — and two
// copies of one transaction can deadlock each other even when every
// distinct pair is certified — Options.Multiplicity certifies each class as
// m copy-vertices (Corollary 3 for the self-pair, expanded-graph cycles for
// the rest), so the certified set is exactly what an engine running up to m
// concurrent instances per class executes. The expanded graph is never
// built: its cycles are enumerated as walks over classes, one CheckCycle
// per cyclic sequence of classes, and counted by arithmetic.
//
// Admitted classes are safe to run on internal/runtime's engine under
// StrategyNone (the paper's payoff) with at most Multiplicity concurrent
// instances per class; rejected classes fall back to StrategyWoundWait.
package admission

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"distlock/internal/core"
	"distlock/internal/model"
	"distlock/internal/runtime"
)

// Fingerprint is a structural hash of a transaction class: its node list
// (kind, mode, entity) in node order plus its direct arc set. Two transactions
// over the same DDB with equal fingerprints behave identically under every
// static test, so fingerprints key the service's pair-verdict cache.
type Fingerprint [sha256.Size]byte

// FingerprintOf computes the structural fingerprint of a transaction: the
// SHA-256 of its node count, each node's kind, mode and entity, and each
// direct arc's two ends, every value as a little-endian uint64.
func FingerprintOf(t *model.Transaction) Fingerprint {
	var stack [512]byte // a typical class's stream fits; a larger one grows on the heap
	b := binary.LittleEndian.AppendUint64(stack[:0], uint64(t.N()))
	for id := range t.N() {
		nd := t.Node(model.NodeID(id))
		b = binary.LittleEndian.AppendUint64(b, uint64(nd.Kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(nd.Mode)) // shared vs exclusive changes every verdict
		b = binary.LittleEndian.AppendUint64(b, uint64(nd.Entity))
	}
	for u := range t.N() {
		for _, v := range t.Out(model.NodeID(u)) {
			b = binary.LittleEndian.AppendUint64(b, uint64(u))
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return sha256.Sum256(b)
}

// pairKey identifies an unordered pair of classes by their interned
// fingerprint ids.
func pairKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Options parameterizes a Service.
type Options struct {
	// CycleBudget bounds the interaction-graph cycles enumerated for a
	// single admission (0 = unlimited). It counts cycles of the expanded
	// graph (Multiplicity copy-vertices per class) through the candidate,
	// computed per shape: one cyclic sequence of classes is checked once and
	// counts as every expanded cycle that runs through its classes in that
	// order. An admission whose next shape would take the count past the
	// budget stops there.
	// Theorem 4's cost is inherently proportional to the cycle count, which
	// explodes on dense mixes; a service with a budget stays responsive by
	// conservatively REJECTING any class whose certification would exceed
	// it. Rejection never decertifies the live set, so the budget trades
	// admission rate for latency, never correctness.
	CycleBudget int64
	// Multiplicity is the number of concurrent instances per class the
	// certified set must support (default 1). The engine runs many
	// instances of each class, and two copies of one transaction can
	// deadlock each other even when every distinct pair is certified (the
	// paper's Corollary 3 / Theorem 5 exist precisely for this). With
	// Multiplicity m, each class is certified as m copy-vertices of the
	// interaction graph: admission additionally checks the class against
	// its own copy and enumerates cycles through every copy, so the
	// certified set is exactly what an engine running up to m concurrent
	// instances per class executes.
	Multiplicity int
}

// Stats summarizes the work a Service has done since creation. Counters are
// cumulative; Live is the current certified-set size.
type Stats struct {
	Live          int   `json:"live"`
	Admitted      int64 `json:"admitted"`
	Rejected      int64 `json:"rejected"`
	Evicted       int64 `json:"evicted"`
	PairChecks    int64 `json:"pair_checks"`    // PairSafeDF evaluations actually performed
	CacheHits     int64 `json:"cache_hits"`     // pair verdicts answered from the fingerprint cache
	CacheMisses   int64 `json:"cache_misses"`   // pair verdicts missing from the cache, each evaluated unless the context was cancelled first
	CyclesChecked int64 `json:"cycles_checked"` // expanded-graph cycles through a new vertex certified for Theorem 4, counted per shape (see Options.CycleBudget)
	// BudgetExhausted counts classes rejected conservatively because
	// certifying them would exceed Options.CycleBudget — the admission
	// latency/admission rate trade made visible.
	BudgetExhausted int64 `json:"budget_exhausted"`
}

// Result reports one admission decision.
type Result struct {
	// Class is the candidate's transaction name.
	Class string
	// Admitted reports whether the class joined the certified set.
	Admitted bool
	// Strategy is the deadlock handling the class requires: StrategyNone
	// when admitted (the mix is certified), StrategyWoundWait otherwise.
	Strategy runtime.Strategy
	// Reason explains a rejection.
	Reason string
	// Violation is the Theorem 4 witness when the rejection came from a
	// cycle check (nil for pair-level rejections). Its Cycle indexes the
	// expanded system: the live classes in admission order, then the
	// candidate, each listed Multiplicity times, so copy k of class i is
	// i*Multiplicity+k.
	Violation *core.MultiViolation
}

// class is one admitted transaction class.
type class struct {
	txn  *model.Transaction
	id   uint32   // interned fingerprint
	pos  int      // index in Service.classes
	self bool     // two copies of the class interact: it locks something exclusively
	nbrs []*class // interaction-graph neighbours within the live set, in admission order
}

// candidate is a class under decision, with what the pair wave learned
// about it on the way.
type candidate struct {
	txn    *model.Transaction
	fp     Fingerprint
	id     uint32   // fp interned, once the service's mutex is held
	self   bool     // as class.self
	nbrs   []*class // live classes it interacts with, in admission order
	peers  []int    // earlier members of its batch it interacts with
	joined *class   // the class it became, once admitted
}

// Service is the admission-control service. All methods are safe for
// concurrent use; admission decisions are serialized so the certified set
// evolves through a single total order of Admit/Evict events.
type Service struct {
	ddb    *model.DDB
	budget int64
	mult   int

	mu      sync.Mutex
	classes []*class
	byName  map[string]*class
	ids     map[Fingerprint]uint32     // every fingerprint submitted, interned to a dense id
	cache   map[uint64]core.PairReport // pair verdicts by pairKey, kept for the service's lifetime
	seen    map[uint64]struct{}        // the pairKeys the current wave has resolved
	cycles  core.CycleChecker
	walk    cycleWalk
	stats   Stats
}

// New creates a service over one distributed database. Every submitted
// class must be built over the same DDB.
func New(ddb *model.DDB, opts Options) *Service {
	m := opts.Multiplicity
	if m <= 0 {
		m = 1
	}
	return &Service{
		ddb:    ddb,
		budget: opts.CycleBudget,
		mult:   m,
		byName: map[string]*class{},
		ids:    map[Fingerprint]uint32{},
		cache:  map[uint64]core.PairReport{},
		seen:   map[uint64]struct{}{},
	}
}

// Admit decides whether t can join the certified set, and adds it if so.
// Cancelling the context aborts the decision: the class does not join and
// ctx.Err() is returned (pair verdicts already computed stay cached).
func (s *Service) Admit(ctx context.Context, t *model.Transaction) (Result, error) {
	rs, err := s.AdmitBatch(ctx, []*model.Transaction{t})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// AdmitBatch admits k classes at once: all candidate pair verdicts (new
// against live, and new against earlier batch members) are resolved in a
// single wave, on the caller, then the classes are admitted greedily in
// order — each joins iff it keeps the set-so-far certified. One rejected
// class never blocks the rest of its batch.
//
// Cancelling the context stops the pair wave and the cycle enumeration and
// returns ctx.Err(), alongside the results of the classes decided before
// the cut (a prefix of ts). Classes the batch had already admitted remain
// admitted (the live set is certified after every join); verdicts already
// computed stay cached.
func (s *Service) AdmitBatch(ctx context.Context, ts []*model.Transaction) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, t := range ts {
		if t.DDB() != s.ddb {
			return nil, fmt.Errorf("admission: class %s built over a different DDB", t.Name())
		}
	}
	cands := make([]candidate, len(ts))
	for i, t := range ts {
		cands[i] = candidate{txn: t, fp: FingerprintOf(t), self: model.Interacts(t, t)}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Wave: find every class each batch member interacts with and resolve
	// every pair verdict it might need.
	clear(s.seen)
	for i := range cands {
		c := &cands[i]
		c.id = s.intern(c.fp)
		if s.mult > 1 && c.self {
			// Corollary 3 via Theorem 3: the class against its own copy.
			s.resolve(ctx, c.txn, c.txn, c.id, c.id)
		}
		for _, l := range s.classes {
			if model.Interacts(c.txn, l.txn) {
				c.nbrs = append(c.nbrs, l)
				s.resolve(ctx, c.txn, l.txn, c.id, l.id)
			}
		}
		for j := range cands[:i] {
			if model.Interacts(c.txn, cands[j].txn) {
				c.peers = append(c.peers, j)
				s.resolve(ctx, c.txn, cands[j].txn, c.id, cands[j].id)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Greedy sequential admission against the (evolving) certified set. On
	// cancellation, the decided prefix is returned alongside the error so
	// callers can see exactly which classes joined before the cut.
	results := make([]Result, len(ts))
	for i := range cands {
		if err := ctx.Err(); err != nil {
			return results[:i], err
		}
		r, err := s.admitOne(ctx, &cands[i], cands)
		if err != nil {
			return results[:i], err
		}
		results[i] = r
	}
	return results, nil
}

// intern returns the dense id of a fingerprint, assigning the next one to a
// fingerprint never submitted before. The caller holds s.mu.
func (s *Service) intern(fp Fingerprint) uint32 {
	id, ok := s.ids[fp]
	if !ok {
		id = uint32(len(s.ids))
		s.ids[fp] = id
	}
	return id
}

// resolve makes sure the cache holds the verdict of the pair of t1 and t2,
// whose interned ids are a and b, counting a pair once per wave. A missing
// verdict is evaluated on the caller — a sub-microsecond check costs less
// than a goroutine hand-off — and cached whatever becomes of the admission; a
// cancelled context skips the evaluation. The caller holds s.mu.
func (s *Service) resolve(ctx context.Context, t1, t2 *model.Transaction, a, b uint32) {
	k := pairKey(a, b)
	if _, dup := s.seen[k]; dup {
		return
	}
	s.seen[k] = struct{}{}
	if _, ok := s.cache[k]; ok {
		s.stats.CacheHits++
		return
	}
	s.stats.CacheMisses++
	if ctx.Err() != nil {
		return
	}
	s.cache[k] = core.PairSafeDF(t1, t2)
	s.stats.PairChecks++
}

// admitOne decides one class against the current live set. The caller holds
// s.mu and has already cached every pair verdict admitOne can need. A
// context cancellation during the cycle phase aborts the decision (the
// class does not join) and surfaces as the returned error.
func (s *Service) admitOne(ctx context.Context, c *candidate, batch []candidate) (Result, error) {
	t := c.txn
	reject := func(reason string, v *core.MultiViolation) Result {
		s.stats.Rejected++
		return Result{Class: t.Name(), Strategy: runtime.StrategyWoundWait,
			Reason: reason, Violation: v}
	}
	if _, dup := s.byName[t.Name()]; dup {
		return reject(fmt.Sprintf("class %s already admitted", t.Name()), nil), nil
	}

	// Phase 1 (Theorem 3): every interacting pair with the live set, plus —
	// for Multiplicity > 1 — the class against its own copy (Corollary 3;
	// by Theorem 5 the two-copy verdict covers every higher copy count).
	lookup := func(o *model.Transaction, id uint32) core.PairReport {
		k := pairKey(c.id, id)
		rep, ok := s.cache[k]
		if !ok {
			// Unreachable from AdmitBatch; keep the slow path for safety.
			rep = core.PairSafeDF(t, o)
			s.cache[k] = rep
			s.stats.CacheMisses++
			s.stats.PairChecks++
		}
		return rep
	}
	if s.mult > 1 && c.self {
		if rep := lookup(t, c.id); !rep.SafeDF {
			return reject(fmt.Sprintf("two copies of %s fail Corollary 3: %s",
				t.Name(), rep.Reason), nil), nil
		}
	}
	// The live neighbours the wave found, then the batch peers that have
	// joined since: s.classes order, which is admission order.
	nbrs := c.nbrs
	for _, j := range c.peers {
		if o := batch[j].joined; o != nil {
			nbrs = append(nbrs, o)
		}
	}
	for _, o := range nbrs {
		if rep := lookup(o.txn, o.id); !rep.SafeDF {
			return reject(fmt.Sprintf("pair (%s, %s) fails Theorem 3: %s",
				t.Name(), o.txn.Name(), rep.Reason), nil), nil
		}
	}

	// Phase 2 (Theorem 4) on the EXPANDED system: every class — live and
	// candidate — stands for Multiplicity copy-vertices, because a cycle
	// through two copies of one class deadlocks the engine just as surely as
	// one through distinct classes. Only cycles through a candidate copy are
	// new: cycles within the live expansion were certified when their own
	// classes were admitted (a cycle's verdict depends only on the
	// transactions on it). cycleWalk enumerates them one shape at a time.
	//
	// A candidate with no live neighbours adds no cycles beyond its own
	// copy-clique, and that clique is covered by the self-pair check
	// (Theorem 5: m copies are safe-and-deadlock-free iff two are).
	if len(nbrs) == 0 {
		return s.join(c, nbrs), nil
	}
	w := &s.walk
	w.run(ctx, s, c, nbrs)
	switch {
	case w.cancelled:
		return Result{}, ctx.Err()
	case w.viol != nil:
		return reject(fmt.Sprintf("admitting %s would create a Theorem 4 violation: %s",
			t.Name(), w.viol), w.viol), nil
	case w.over:
		s.stats.BudgetExhausted++
		return reject(fmt.Sprintf(
			"certifying %s needs more than %d cycles (CycleBudget); rejected conservatively",
			t.Name(), s.budget), nil), nil
	}
	return s.join(c, nbrs), nil
}

// join adds a certified class to the live set. The caller holds s.mu.
func (s *Service) join(c *candidate, nbrs []*class) Result {
	nc := &class{txn: c.txn, id: c.id, pos: len(s.classes), self: c.self, nbrs: nbrs}
	for _, o := range nbrs {
		o.nbrs = append(o.nbrs, nc)
	}
	c.joined = nc
	s.classes = append(s.classes, nc)
	s.byName[c.txn.Name()] = nc
	s.stats.Admitted++
	return Result{Class: c.txn.Name(), Admitted: true, Strategy: runtime.StrategyNone}
}

// Evict removes the named class from the certified set. Removing a vertex
// only deletes pairs and cycles, so the remaining set stays certified with
// no re-checking; the pair-verdict cache is retained so re-admission after
// churn is cheap. It reports whether the class was live.
func (s *Service) Evict(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byName[name]
	if !ok {
		return false
	}
	delete(s.byName, name)
	for _, o := range c.nbrs {
		o.nbrs = slices.DeleteFunc(o.nbrs, func(x *class) bool { return x == c })
	}
	s.classes = slices.Delete(s.classes, c.pos, c.pos+1)
	for _, x := range s.classes[c.pos:] {
		x.pos--
	}
	s.stats.Evicted++
	return true
}

// Snapshot returns the current certified set as a transaction system. The
// returned system is immutable and safe to use after further churn.
func (s *Service) Snapshot() *model.System {
	s.mu.Lock()
	defer s.mu.Unlock()
	txns := make([]*model.Transaction, len(s.classes))
	for i, c := range s.classes {
		txns[i] = c.txn
	}
	return model.MustSystem(s.ddb, txns...)
}

// Multiplicity returns the per-class concurrency the certified set
// supports.
func (s *Service) Multiplicity() int { return s.mult }

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Live = len(s.classes)
	return st
}
