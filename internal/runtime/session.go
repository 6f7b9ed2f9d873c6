package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"distlock/internal/graph"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// ErrClosed is returned by session operations once the engine has been
// closed.
var ErrClosed = errors.New("runtime: engine closed")

// ErrSessionDone is returned by operations on a session that has already
// committed or aborted.
var ErrSessionDone = errors.New("runtime: session already committed or aborted")

// instKey identifies one transaction instance.
type instKey = locktable.InstKey

// Session is one externally-driven transaction instance: a client-side
// handle over the engine's lock table. The session is pinned to a
// transaction class (its template) and enforces the class's partial order:
// each Lock/Unlock must correspond to a template operation whose
// predecessors have all executed. Lock blocks until the table grants the
// entity, the context is cancelled, or the engine closes. No engine ever
// aborts a session: only the caller's Abort or the engine's Close ends
// one that has not committed.
//
// A Session is a transaction handle in the style of database transactions:
// it must be driven by one goroutine at a time. Distinct sessions are
// fully concurrent.
//
// A Session must not be copied once Begin or BeginAt has initialised it:
// for templates of up to 64 nodes its executed and held bitsets alias the
// session's own inline words, so a copy would share — and corrupt — the
// original's operation state.
type Session struct {
	e    *Engine
	tmpl *model.Transaction
	key  instKey

	// executed marks the template nodes run so far; held marks the Lock
	// node of every entity the session holds. Their words live in inline
	// for templates of up to 64 nodes, in one heap array beyond.
	executed graph.Bitset
	held     graph.Bitset
	inline   [2]uint64
	done     bool
	// twoPhase makes the first Lock take the class's whole entity set
	// (see BeginAt).
	twoPhase bool

	// nsync tallies this session's synchronous lock operations, flushed
	// to the engine's counters once at session end — a plain increment
	// per Lock instead of a striped atomic on the hot path.
	nsync int64

	// x holds the state only wire, pipelined or traced engines touch. It
	// is nil on a plain in-process engine, which keeps the hot session
	// small (see BeginAt), and once the session ended.
	x *sessionExtra
}

// sessionExtra is the part of a Session the plain in-process path never
// reads: drawn by BeginAt only when the engine pipelines, ships releases
// without waiting or samples spans, and recycled at session end (see
// dropExtra) with its arrays kept for the next session.
type sessionExtra struct {
	// In-flight state. pend holds the in-flight acquires in submission
	// order, oldest first (the join-oldest window, and Commit's join
	// order) — pipelined engines only (see EngineOptions.PipelineDepth);
	// rels the completions of releases Unlock shipped without waiting
	// (every wire backend), joined by Commit; pipeErr poisons the session
	// once any joined completion failed — every later operation reports
	// it, and Abort cleans up whatever is in flight.
	pend    []inflight
	rels    []locktable.Completion
	pipeErr error

	// npipe is nsync's pipelined twin.
	npipe int64

	// Op-trace sampling (engines with TraceSampleEvery armed). spanTick is
	// the session's plain-int sampling counter — no atomics on the op path
	// — seeded from the instance id so short sessions collectively still
	// sample at the aggregate 1-in-N rate.
	spanTick int
}

var extraPool = sync.Pool{New: func() any { return new(sessionExtra) }}

// inflight is one pipelined acquire shipped and not yet joined: its
// completion, and its span (nil unless sampled), committed at the join.
type inflight struct {
	ent  model.EntityID
	comp locktable.Completion
	sp   *obs.Span
}

// Begin opens a certified session for one instance of the template
// transaction (see BeginAt).
func (e *Engine) Begin(tmpl *model.Transaction) (*Session, error) {
	s := new(Session)
	if err := e.BeginAt(s, tmpl, false); err != nil {
		return nil, err
	}
	return s, nil
}

// BeginAt is Begin into caller-provided memory: it initialises *s, which
// must be zero, as a fresh session. It lets a caller embed the Session in
// its own state, which it may recycle: zeroing *s in place once the session
// has ended makes it fit for BeginAt again. *s must not be copied
// afterwards (see Session).
//
// A certified session (twoPhase false) acquires each entity at its own
// Lock: the static certification is the proof that its class cannot
// deadlock. A two-phase session is for a class without that proof: its
// first Lock acquires the class's whole entity set, in the template's
// modes, and never waits while it holds a lock (see lockAll); its later
// Locks only run their template nodes. Every Unlock comes after that lock
// point, so the session is two-phase whatever its template's order, hence
// serializable, and no waits-for cycle runs through it. Both kinds share
// the engine's table, and a two-phase session takes the synchronous path
// on a pipelined engine too.
func (e *Engine) BeginAt(s *Session, tmpl *model.Transaction, twoPhase bool) error {
	if tmpl == nil {
		return fmt.Errorf("runtime: nil template")
	}
	if tmpl.DDB() != e.ddb {
		return fmt.Errorf("runtime: template %s built over a different database", tmpl.Name())
	}
	if e.stopped.Load() {
		return ErrClosed
	}
	id := int(e.nextID.Add(1))
	s.e = e
	s.tmpl = tmpl
	s.key = instKey{ID: id}
	s.twoPhase = twoPhase
	n := tmpl.N()
	words := s.inline[:]
	if k := graph.WordsFor(n); k > 1 {
		words = make([]uint64, 2*k)
	}
	half := len(words) / 2
	s.executed = graph.BitsetOver(words[:half], n)
	s.held = graph.BitsetOver(words[half:], n)
	if e.async != nil || e.releaseAsync != nil || e.spans != nil {
		s.x = extraPool.Get().(*sessionExtra)
	}
	if e.spans != nil {
		// Stagger sessions across the sampling period: sessions run a
		// handful of ops each, so without the seed most would never reach
		// the 1-in-N threshold and hot classes would go unsampled.
		s.x.spanTick = (id * 7) % e.spanEvery
	}
	return nil
}

// spanDue ticks the session's sampling counter and reports whether this op
// is the one-in-spanEvery that gets a span. Only called when tracing is
// armed.
func (s *Session) spanDue() bool {
	s.x.spanTick++
	if s.x.spanTick >= s.e.spanEvery {
		s.x.spanTick = 0
		return true
	}
	return false
}

// ID returns the session's engine-wide instance id.
func (s *Session) ID() int { return s.key.ID }

// Template returns the transaction class the session is pinned to.
func (s *Session) Template() *model.Transaction { return s.tmpl }

// Held returns the entities the session currently holds, sorted by id.
func (s *Session) Held() []model.EntityID {
	out := make([]model.EntityID, 0, s.held.Count())
	s.held.ForEach(func(nid int) bool {
		out = append(out, s.tmpl.Node(model.NodeID(nid)).Entity)
		return true
	})
	slices.Sort(out)
	return out
}

// ready validates that the template node may execute now: the session is
// open, the node not yet executed, and every predecessor in the class's
// partial order executed.
func (s *Session) ready(nid model.NodeID) error {
	if s.done {
		return ErrSessionDone
	}
	if s.executed.Has(int(nid)) {
		return fmt.Errorf("runtime: %s: %s already executed", s.tmpl.Name(), s.label(nid))
	}
	if !s.executed.ContainsAll(s.tmpl.Preds(nid)) {
		return fmt.Errorf("runtime: %s: %s violates the class's partial order (unexecuted predecessor)",
			s.tmpl.Name(), s.label(nid))
	}
	return nil
}

// label names a template node the way error messages spell it: "Lx" or
// "Ux", whatever the lock's mode. Built only on an error path.
func (s *Session) label(nid model.NodeID) string {
	nd := s.tmpl.Node(nid)
	return nd.Kind.String() + s.e.ddb.EntityName(nd.Entity)
}

// lockNode is the template's Lock node of ent: the bit that marks ent
// held. Every caller has already matched ent to one of its template nodes.
func (s *Session) lockNode(ent model.EntityID) int {
	nid, _ := s.tmpl.LockNode(ent)
	return int(nid)
}

// Lock acquires the entity in the given mode, blocking until the lock
// table grants it. The mode must be the one the class template certifies
// for the entity: the static admission proved safety and deadlock-freedom
// for exactly the template's modes, so acquiring in any other mode
// (upgrading a read to a write, or silently downgrading) would run
// uncertified — the mismatch is rejected before the table is touched.
// Lock returns promptly with ctx.Err() if the context is cancelled while
// waiting (the request is withdrawn from the table first, so no lock is
// held on return) and with ErrClosed if the engine shuts down. After a
// cancellation the session remains usable and Lock may be retried. On a
// two-phase session the first Lock acquires the whole entity set and the
// later ones touch no table (see BeginAt).
func (s *Session) Lock(ctx context.Context, ent model.EntityID, mode model.Mode) error {
	nid, ok := s.tmpl.LockNode(ent)
	if !ok {
		return fmt.Errorf("runtime: %s has no Lock(%s) operation", s.tmpl.Name(), s.e.ddb.EntityName(ent))
	}
	if want := s.tmpl.Node(nid).Mode; mode != want {
		return fmt.Errorf("runtime: %s locks %s in mode %s, not %s (the certification covers the template's modes only)",
			s.tmpl.Name(), s.e.ddb.EntityName(ent), want, mode)
	}
	if err := s.ready(nid); err != nil {
		return err
	}
	if s.twoPhase && s.held.Has(int(nid)) {
		s.nsync++
		s.executed.Set(int(nid))
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Holding lets a shared request pass a queued writer: the wait relation
	// certification assumed (see locktable.Instance.Holding). A pipelined
	// session counts its in-flight acquires as held; the server enters them
	// in the table before this one, so the claim is true when it matters.
	inst := locktable.Instance{Key: s.key, Holding: s.held.Count() > 0}
	if s.e.spans != nil && s.spanDue() {
		inst.Span = s.e.spans.Start(obs.SpanAcquire, int32(ent))
		inst.Span.Stamp(obs.StageSubmit)
	}
	sp := inst.Span
	if s.e.async != nil && !s.twoPhase {
		err := s.lockPipelined(ctx, inst, ent, mode, nid)
		if err == nil {
			// Counted as pipelined at submission: the optimistic hold is
			// the path's defining move, whether or not a join parked.
			s.x.npipe++
		}
		return err
	}
	var err error
	if s.twoPhase {
		err = s.lockAll(ctx, inst)
	} else {
		err = s.e.table.Acquire(ctx, inst, ent, mode)
	}
	if err != nil {
		// A context cancellation passes through: the table withdrew the
		// request.
		return mapTableErr(err)
	}
	if sp != nil {
		if s.e.releaseAsync == nil || s.twoPhase {
			// In-process table (no AsyncTable), or a two-phase first Lock,
			// whose table calls carry no span: the whole acquire is one
			// grant stage, stamped here so the table — in particular the
			// sharded CAS shared fast path — never sees a span.
			sp.Stamp(obs.StageGrant)
			sp.Stamp(obs.StageWakeup)
		}
		s.e.recordSpan(sp)
	}
	s.nsync++
	if s.twoPhase {
		for _, e := range s.tmpl.Entities() {
			s.held.Set(s.lockNode(e))
		}
	} else {
		s.held.Set(int(nid))
	}
	s.executed.Set(int(nid))
	return nil
}

// lockAll is a two-phase session's first Lock: it acquires the class's
// whole entity set, in the template's modes, without ever waiting while
// it holds a lock. It tries the entities in entity order. On the first
// miss it releases what it got, blocks on that one entity alone, and once
// that is granted tries the rest again. This is conservative two-phase
// locking: the session waits only while it holds nothing, so no waits-for
// cycle can pass through it. On a non-nil return it holds nothing. Its
// table calls carry no span: Lock stamps the whole set as one grant.
func (s *Session) lockAll(ctx context.Context, inst locktable.Instance) error {
	inst.Span = nil
	ents := s.tmpl.Entities()
	blocked := -1 // index of the entity the last blocking Acquire granted
	for {
		miss, err := -1, error(nil)
		for i, ent := range ents {
			if i == blocked {
				continue
			}
			ok, terr := s.e.table.TryAcquire(inst, ent, s.tmpl.ModeOf(ent))
			if terr != nil || !ok {
				miss, err = i, terr
				break
			}
		}
		if miss < 0 {
			return nil
		}
		// Release everything held: the entities tried before the miss,
		// which include the blocked one if it sorts before it. A release
		// fails only on a stopped table, which the Acquire below reports.
		_ = s.e.table.ReleaseAll(ents[:miss], s.key)
		if blocked > miss {
			_ = s.e.table.Release(ents[blocked], s.key)
		}
		if err != nil {
			return err
		}
		if err := s.e.table.Acquire(ctx, inst, ents[miss], s.tmpl.ModeOf(ents[miss])); err != nil {
			return err
		}
		blocked = miss
	}
}

// mapTableErr maps a lock-table error onto the session contract.
func mapTableErr(err error) error {
	if errors.Is(err, locktable.ErrStopped) {
		return ErrClosed
	}
	return err
}

// lockPipelined is Lock on a pipelined engine: the acquire is submitted
// and optimistically counted as held — certification proved the grant
// cannot deadlock, so the chain's next request ships before this ack
// returns — and only when more than PipelineDepth acquires are
// unacknowledged does the session park on the oldest. A join failure
// (lease expiry, shutdown) poisons the session: the optimistic
// grants were a bet on the acks, and once one fails the attempt is over —
// the caller aborts, which resolves everything still in flight before
// releasing.
func (s *Session) lockPipelined(ctx context.Context, inst locktable.Instance, ent model.EntityID, mode model.Mode, nid model.NodeID) error {
	if s.x.pipeErr != nil {
		return mapTableErr(s.x.pipeErr)
	}
	if cap(s.x.pend) == 0 {
		// One per Lock node: each entity is submitted once, and the joins
		// pop the front in place, so appends never outgrow the array.
		s.x.pend = make([]inflight, 0, s.tmpl.N()/2)
	}
	s.x.pend = append(s.x.pend, inflight{ent, s.e.async.AcquireAsync(inst, ent, mode), inst.Span})
	s.held.Set(int(nid))
	s.executed.Set(int(nid))
	for len(s.x.pend) > s.e.pipeline {
		oldest := s.x.pend[0]
		s.x.pend = slices.Delete(s.x.pend, 0, 1)
		if err := s.joinAcquire(ctx, oldest); err != nil {
			return mapTableErr(err)
		}
	}
	return nil
}

// joinAcquire collects one in-flight acquire, already taken out of pend.
// On failure the optimistic hold is rolled back (the completion's Wait
// guarantees nothing is held on a non-nil return) and the session is
// poisoned.
func (s *Session) joinAcquire(ctx context.Context, f inflight) error {
	if err := f.comp.Wait(ctx); err != nil {
		s.held.Clear(s.lockNode(f.ent))
		if s.x.pipeErr == nil {
			s.x.pipeErr = err
		}
		return err // failed op: the span is dropped, never committed
	}
	// The client's Wait stamped StageWakeup; the join is the span's last
	// holder, so it commits here.
	s.e.recordSpan(f.sp)
	return nil
}

// Unlock releases a held entity. On the in-process table it completes as
// soon as the table processes the release (granting the entity to its
// next waiter). On a wire backend it returns once the release is queued
// for the wire — on a pipelined engine even while the entity's own
// acquire is still in flight — and Commit joins its completion, so a
// release's error (a revoked lease's stale fence, a dead server)
// surfaces at this session's Commit instead of here.
func (s *Session) Unlock(ent model.EntityID) error {
	nid, ok := s.tmpl.UnlockNode(ent)
	if !ok {
		return fmt.Errorf("runtime: %s has no Unlock(%s) operation", s.tmpl.Name(), s.e.ddb.EntityName(ent))
	}
	if err := s.ready(nid); err != nil {
		return err
	}
	lnid := s.lockNode(ent)
	if !s.held.Has(lnid) {
		return fmt.Errorf("runtime: %s: Unlock(%s) without holding the lock", s.tmpl.Name(), s.e.ddb.EntityName(ent))
	}
	if s.e.releaseAsync != nil {
		return s.unlockAsync(ent, lnid, nid)
	}
	// In-process releases are traced session-level only (submit + wakeup)
	// and reach the span ring, not the stage histograms, so StageLatency's
	// "total" is sampled Lock latency here as over the wire. Wire releases
	// are joined at Commit — there is no wakeup to stamp.
	var sp *obs.Span
	if s.e.spans != nil && s.spanDue() {
		sp = s.e.spans.Start(obs.SpanRelease, int32(ent))
		sp.Stamp(obs.StageSubmit)
	}
	if err := s.e.table.Release(ent, s.key); err != nil {
		if errors.Is(err, locktable.ErrStopped) {
			return ErrClosed
		}
		return fmt.Errorf("runtime: %s: Unlock(%s): %w", s.tmpl.Name(), s.e.ddb.EntityName(ent), err)
	}
	if sp != nil {
		sp.Stamp(obs.StageWakeup)
		sp.Commit()
	}
	s.held.Clear(lnid)
	s.executed.Set(int(nid))
	return nil
}

// unlockAsync is Unlock on a wire backend: the release is queued for the
// wire and its completion joined at Commit, so Unlock never waits for the
// server. That is sound for any session, certified or not: one
// connection's FIFO executes the release ahead of the instance's next
// operation, and a release still in flight can only lengthen a hold — it
// delays other waiters but can neither grant early nor close a waits-for
// cycle. Synchronous sessions get a release with an execution receipt, so
// their Commit reports exactly their own releases' outcomes; pipelined
// ones keep the receipt-free release (see EngineOptions.PipelineDepth).
//
// A pipelined session does not wait for any in-flight acquire either, not
// even the one of the entity it unlocks: the release names its owner
// (instance and entity) and frees the grant that acquire records, so
// ordering it behind that acquire — and behind the instance's other
// in-flight ones — is the table's job, not the session's: the netlock
// server runs the instance's operations in wire order (program order on
// each server's slice), and the cluster backend fences partition
// switches, so the executed schedule stays inside the certified system
// while this goroutine runs ahead. The acquire's completion stays pending
// and Commit joins it.
func (s *Session) unlockAsync(ent model.EntityID, lnid int, nid model.NodeID) error {
	if s.x.pipeErr != nil {
		return mapTableErr(s.x.pipeErr)
	}
	if cap(s.x.rels) == 0 {
		s.x.rels = make([]locktable.Completion, 0, s.tmpl.N()/2) // one per Unlock node
	}
	release := s.e.releaseAsync
	if s.twoPhase && s.e.async != nil {
		release = s.e.async.ReleaseAsyncAcked // a synchronous session's receipt
	}
	s.x.rels = append(s.x.rels, release(ent, s.key))
	s.held.Clear(lnid)
	s.executed.Set(int(nid))
	return nil
}

// Commit closes the session after a complete run of the class program:
// every template operation must have executed (which implies every lock
// was released). On a wire backend it first joins what the session
// shipped without waiting — a pipelined session's in-flight acquires, in
// submission order, then every release Unlock queued — so on a pipelined
// engine Commit returns only once every lock was granted. A failed join
// fails the commit (the first error wins) — ErrClosed if the table
// stopped, the operation's error (netlock.ErrStaleFence,
// netlock.ErrLeaseExpired, ...) wrapped otherwise — and the caller must
// Abort, exactly as after a failed synchronous Lock or Unlock.
func (s *Session) Commit() error {
	if s.done {
		return ErrSessionDone
	}
	if got := s.executed.Count(); got != s.tmpl.N() {
		return fmt.Errorf("runtime: %s: commit with %d of %d operations executed",
			s.tmpl.Name(), got, s.tmpl.N())
	}
	if n := s.held.Count(); n > 0 {
		return fmt.Errorf("runtime: %s: commit while holding %d locks", s.tmpl.Name(), n)
	}
	// A plain in-process session shipped nothing it did not wait for.
	if s.x != nil {
		if err := s.joinShipped(); err != nil {
			return err
		}
	}
	s.done = true
	s.flushOps()
	s.e.modeTally(s.twoPhase).commits.Add(1)
	return nil
}

// joinShipped is Commit's join of what the session shipped without
// waiting: the acquires Unlock did not wait for settle first, in
// submission order (joinAcquire records the first failure in pipeErr),
// then the queued releases. It reports the first failure the way Commit
// does.
func (s *Session) joinShipped() error {
	x := s.x
	for _, f := range x.pend {
		s.joinAcquire(context.Background(), f)
	}
	x.pend = x.pend[:0]
	if len(x.rels) > 0 {
		// The releases Unlock did not wait for settle here: this is where
		// their errors (a stale fence after lease expiry, a dead server)
		// surface. A failed release means the attempt did not cleanly
		// return its locks.
		for _, rc := range x.rels {
			if err := rc.Wait(context.Background()); err != nil && x.pipeErr == nil {
				x.pipeErr = err
			}
		}
		x.rels = x.rels[:0]
	}
	if x.pipeErr != nil {
		if errors.Is(x.pipeErr, locktable.ErrStopped) {
			return ErrClosed
		}
		return fmt.Errorf("runtime: %s: commit: in-flight operation failed: %w", s.tmpl.Name(), x.pipeErr)
	}
	return nil
}

// flushOps moves the session's per-path op tallies into the engine's
// counters, and hands its sessionExtra back (see dropExtra). Called once
// at every session end (commit, abort, discard), after the joins, so
// Engine.Counters lags a live session's in-flight operations but is exact
// once the session closes.
func (s *Session) flushOps() {
	if s.nsync != 0 {
		s.e.modeTally(s.twoPhase).syncOps.Add(uint64(s.key.ID), s.nsync)
		s.nsync = 0
	}
	if s.x != nil {
		if s.x.npipe != 0 {
			s.e.modeTally(s.twoPhase).pipelinedOps.Add(uint64(s.key.ID), s.x.npipe)
		}
		s.dropExtra()
	}
}

// dropExtra ends the session's hold on its sessionExtra, the last use of
// s.x. The arrays are cleared, so they keep no completion or span alive,
// and go back to the pool with it. What was shipped and never joined (an
// abort's release receipts, a discarded session's acquires) is abandoned,
// which the Completion contract allows.
func (s *Session) dropExtra() {
	x := s.x
	s.x = nil
	clear(x.pend[:cap(x.pend)])
	clear(x.rels[:cap(x.rels)])
	*x = sessionExtra{pend: x.pend[:0], rels: x.rels[:0]}
	extraPool.Put(x)
}

// Abort closes the session, releasing every held lock through the lock
// table: on return the session holds nothing. Abort is idempotent;
// aborting a committed session is a no-op. On a closed engine Abort
// degrades to a discard — the lock table died with the engine, and
// shutdown is not a transaction abort, so it counts as Discarded.
func (s *Session) Abort() error {
	if s.done {
		return nil
	}
	if s.e.stopped.Load() {
		s.discard()
		return nil
	}
	s.done = true
	if s.x != nil && len(s.x.pend) > 0 {
		// Resolve every in-flight acquire with an already-cancelled
		// context before the release wave: each Wait withdraws its request
		// — or releases the grant that raced the withdrawal — so nothing
		// can land *after* the wave and leak. An acquire that did resolve
		// into a grant keeps its fence record and is swept by ReleaseAll
		// below like any other hold. The Waits run concurrently so every
		// cancel is on the wire at once: the server answers one instance's
		// operations in submission order, so a Wait on an acquire queued
		// behind one parked on a foreign holder returns only after the
		// parked one's cancel has been sent; one at a time, each cancel
		// would wait out the answers to every acquire ahead of it.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var wg sync.WaitGroup
		for _, f := range s.x.pend {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.comp.Wait(ctx)
			}()
		}
		wg.Wait() // aborted ops' spans are dropped, never committed
	}
	s.flushOps()
	// One release wave (locktable.ReleaseEach): on the wire it runs in
	// the instance's wire order, behind the acquires just resolved. A
	// mid-abort shutdown leaves the rest to die with the table.
	s.e.table.ReleaseAll(s.Held(), s.key)
	s.held.Reset()
	s.e.modeTally(s.twoPhase).aborts.Add(1)
	return nil
}

// discard closes a session during engine shutdown. The lock table dies
// with the engine, so nothing is released, and the session is counted as
// Discarded, not aborted — shutdown is not a transaction abort.
func (s *Session) discard() {
	if s.done {
		return
	}
	s.done = true
	s.flushOps()
	s.e.modeTally(s.twoPhase).discards.Add(1)
}
