package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"distlock/internal/graph"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// ErrAborted is returned by session operations after the engine's deadlock
// handling (a wound-wait wound) aborted the transaction. The caller must
// call Abort to release what the session still holds, and may then retry
// with a fresh session.
var ErrAborted = errors.New("runtime: transaction aborted by deadlock handling")

// ErrClosed is returned by session operations once the engine has been
// closed.
var ErrClosed = errors.New("runtime: engine closed")

// ErrSessionDone is returned by operations on a session that has already
// committed or aborted.
var ErrSessionDone = errors.New("runtime: session already committed or aborted")

// instKey identifies one attempt (epoch) of one transaction instance.
type instKey = locktable.InstKey

// Session is one externally-driven transaction instance: a client-side
// handle over the engine's lock table. The session is pinned to a
// transaction class (its template) and enforces the class's partial order:
// each Lock/Unlock must correspond to a template operation whose
// predecessors have all executed. Lock blocks until the table grants the
// entity, the context is cancelled, the engine's deadlock handling aborts
// the transaction, or the engine closes.
//
// A Session is a transaction handle in the style of database transactions:
// it must be driven by one goroutine at a time. Distinct sessions are
// fully concurrent.
type Session struct {
	e    *Engine
	tmpl *model.Transaction
	key  instKey
	prio int64

	// executed marks the template nodes run so far; held marks the Lock
	// node of every entity the session holds. Their words live in inline
	// for templates of up to 64 nodes, in one heap array beyond.
	executed graph.Bitset
	held     graph.Bitset
	inline   [2]uint64
	abortCh  chan struct{} // nil on StrategyNone (see beginInstance)
	done     bool
	doomed   bool

	// In-flight state. pendAcq holds in-flight acquires by entity, pendQ
	// their submission order (the join-oldest window, and Commit's join
	// order) — both pipelined engines only (see
	// EngineOptions.PipelineDepth); rels the completions
	// of releases Unlock shipped without waiting (every wire backend),
	// joined by Commit; pipeErr poisons the session once any joined
	// completion failed — every later operation reports it, and Abort
	// cleans up whatever is in flight.
	pendAcq map[model.EntityID]locktable.Completion
	pendQ   []model.EntityID
	rels    []locktable.Completion
	pipeErr error

	// lockedAt records held entities' grant times in unix nanos, for the
	// engine's hold-time histogram. Empty unless
	// EngineOptions.MeasureLatency armed it. A linear-scanned slice, not
	// a map: sessions hold a handful of entities and the bookkeeping runs
	// once per lock on the measured path.
	lockedAt []grantStamp

	// nsync/npipe tally this session's lock operations by path, flushed
	// to the engine's counters once at session end — a plain increment
	// per Lock instead of a striped atomic on the hot path.
	nsync, npipe int64

	// Op-trace sampling (engines with TraceSampleEvery armed). spanTick is
	// the session's plain-int sampling counter — no atomics on the op path
	// — seeded from the instance id so short sessions collectively still
	// sample at the aggregate 1-in-N rate. pendSpans holds the spans of
	// in-flight pipelined acquires by entity, committed at join.
	spanTick  int
	pendSpans map[model.EntityID]*obs.Span
}

// grantStamp is one held entity's grant time (unix nanos).
type grantStamp struct {
	ent model.EntityID
	at  int64
}

// Begin opens a session for one instance of the template transaction. The
// instance's age priority (for wound-wait) is its begin order on this
// engine.
func (e *Engine) Begin(tmpl *model.Transaction) (*Session, error) {
	if tmpl == nil {
		return nil, fmt.Errorf("runtime: nil template")
	}
	if tmpl.DDB() != e.ddb {
		return nil, fmt.Errorf("runtime: template %s built over a different database", tmpl.Name())
	}
	select {
	case <-e.stop:
		return nil, ErrClosed
	default:
	}
	id := int(e.nextID.Add(1))
	return e.beginInstance(tmpl, id, 0, int64(id)), nil
}

// Retry opens a fresh session for the same transaction instance as a
// closed (aborted) session, preserving its identity and age priority: under
// wound-wait a retried transaction keeps its original age, so it cannot be
// wounded forever by younger traffic (no starvation). The previous session
// must have ended.
func (e *Engine) Retry(prev *Session) (*Session, error) {
	if prev == nil || prev.e != e {
		return nil, fmt.Errorf("runtime: Retry of a session from a different engine")
	}
	if !prev.done {
		return nil, fmt.Errorf("runtime: Retry of a session that has not ended")
	}
	select {
	case <-e.stop:
		return nil, ErrClosed
	default:
	}
	return e.beginInstance(prev.tmpl, prev.key.ID, prev.key.Epoch+1, prev.prio), nil
}

// beginInstance opens a session with explicit instance identity: Retry
// reuses an instance id across epochs so the wound-wait age priority of a
// wounded transaction survives its retries.
//
// Only a wound-wait engine gives the session an abort signal and
// registers it: on StrategyNone nothing can ever fire one — the table
// runs without wound-wait, and a wire server must match the engine's
// wound-wait setting at the handshake — so a certified session takes no
// engine lock at all.
func (e *Engine) beginInstance(tmpl *model.Transaction, id, epoch int, prio int64) *Session {
	s := &Session{
		e:    e,
		tmpl: tmpl,
		key:  instKey{ID: id, Epoch: epoch},
		prio: prio,
	}
	n := tmpl.N()
	words := s.inline[:]
	if k := graph.WordsFor(n); k > 1 {
		words = make([]uint64, 2*k)
	}
	half := len(words) / 2
	s.executed = graph.BitsetOver(words[:half], n)
	s.held = graph.BitsetOver(words[half:], n)
	if e.spans != nil {
		// Stagger sessions across the sampling period: sessions run a
		// handful of ops each, so without the seed most would never reach
		// the 1-in-N threshold and hot classes would go unsampled.
		s.spanTick = (id * 7) % e.spanEvery
	}
	if e.strategy != StrategyNone {
		s.abortCh = make(chan struct{}, 1)
		e.mu.Lock()
		e.abortChs[id] = s.abortCh
		e.mu.Unlock()
	}
	return s
}

// spanDue ticks the session's sampling counter and reports whether this op
// is the one-in-spanEvery that gets a span. Only called when tracing is
// armed.
func (s *Session) spanDue() bool {
	s.spanTick++
	if s.spanTick >= s.e.spanEvery {
		s.spanTick = 0
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

// Doomed exposes the abort signal: it is readable once the engine's
// deadlock handling has picked this transaction as a victim. Drivers
// sleeping between operations select on it to notice wounds promptly. On
// a StrategyNone engine it is nil — a channel that never fires — because
// nothing can pick a certified session as a victim.
func (s *Session) Doomed() <-chan struct{} { return s.abortCh }

// ready validates that the template node may execute now: the session is
// open, not a deadlock-handling victim, the node not yet executed, and
// every predecessor in the class's partial order executed.
func (s *Session) ready(nid model.NodeID) error {
	if s.done {
		return ErrSessionDone
	}
	if s.doomed {
		return ErrAborted
	}
	if s.abortCh != nil {
		select {
		case <-s.abortCh:
			s.doomed = true
			return ErrAborted
		default:
		}
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
// held on return), with ErrAborted if the engine's deadlock handling
// aborts the transaction, and with ErrClosed if the engine shuts down.
// After a cancellation the session remains usable and Lock may be retried.
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
	if err := ctx.Err(); err != nil {
		return err
	}
	inst := locktable.Instance{Key: s.key, Prio: s.prio, Doomed: s.abortCh}
	var lockStart time.Time
	if s.e.lockWait != nil {
		lockStart = time.Now()
	}
	if s.e.spans != nil && s.spanDue() {
		inst.Span = s.e.spans.Start(obs.SpanAcquire, int32(ent))
		inst.Span.Stamp(obs.StageSubmit)
	}
	sp := inst.Span
	if s.e.async != nil {
		err := s.lockPipelined(ctx, inst, ent, mode, nid)
		if err == nil {
			// Counted as pipelined at submission: the optimistic hold is
			// the path's defining move, whether or not a join parked.
			s.npipe++
			s.noteGranted(ent, lockStart)
		}
		return err
	}
	err := s.e.table.Acquire(ctx, inst, ent, mode)
	switch {
	case err == nil:
		if sp != nil {
			if s.e.backend == BackendSharded {
				// In-process backend: the whole acquire is one grant stage,
				// stamped here so the table — in particular the sharded
				// CAS shared fast path — never sees a span.
				sp.Stamp(obs.StageGrant)
				sp.Stamp(obs.StageWakeup)
			}
			s.e.recordSpan(sp)
		}
		s.nsync++
		s.noteGranted(ent, lockStart)
		s.held.Set(int(nid))
		s.executed.Set(int(nid))
		return nil
	case errors.Is(err, locktable.ErrWounded):
		s.doomed = true
		return ErrAborted
	case errors.Is(err, locktable.ErrStopped):
		return ErrClosed
	default:
		return err // context cancellation: the table withdrew the request
	}
}

// noteGranted records one granted lock's wait sample and grant time.
// No-op unless EngineOptions.MeasureLatency armed the histograms — the
// counters are unconditional, but the latency instruments are the one
// piece that would add time.Now calls to a path that has no timestamp:
// two clock reads per grant, the grant-stamp bookkeeping, and a third
// read at release.
func (s *Session) noteGranted(ent model.EntityID, start time.Time) {
	if s.e.lockWait == nil {
		return
	}
	now := time.Now()
	s.e.lockWait.Record(now.Sub(start).Nanoseconds())
	s.lockedAt = append(s.lockedAt, grantStamp{ent: ent, at: now.UnixNano()})
}

// noteReleased records one cleanly released lock's hold-time sample.
func (s *Session) noteReleased(ent model.EntityID) {
	if s.e.holdTime == nil {
		return
	}
	for i := range s.lockedAt {
		if s.lockedAt[i].ent == ent {
			at := s.lockedAt[i].at
			last := len(s.lockedAt) - 1
			s.lockedAt[i] = s.lockedAt[last]
			s.lockedAt = s.lockedAt[:last]
			s.e.holdTime.Record(time.Now().UnixNano() - at)
			return
		}
	}
}

// mapTableErr maps a lock-table error onto the session contract (the
// same mapping the synchronous Lock applies inline).
func (s *Session) mapTableErr(err error) error {
	switch {
	case errors.Is(err, locktable.ErrWounded):
		s.doomed = true
		return ErrAborted
	case errors.Is(err, locktable.ErrStopped):
		return ErrClosed
	default:
		return err
	}
}

// lockPipelined is Lock on a pipelined engine: the acquire is submitted
// and optimistically counted as held — certification proved the grant
// cannot deadlock, so the chain's next request ships before this ack
// returns — and only when more than PipelineDepth acquires are
// unacknowledged does the session park on the oldest. A join failure
// (wound, lease expiry, shutdown) poisons the session: the optimistic
// grants were a bet on the acks, and once one fails the attempt is over —
// the caller aborts, which resolves everything still in flight before
// releasing.
func (s *Session) lockPipelined(ctx context.Context, inst locktable.Instance, ent model.EntityID, mode model.Mode, nid model.NodeID) error {
	if s.pipeErr != nil {
		return s.mapTableErr(s.pipeErr)
	}
	if s.pendAcq == nil {
		s.pendAcq = map[model.EntityID]locktable.Completion{}
	}
	s.pendAcq[ent] = s.e.async.AcquireAsync(inst, ent, mode)
	if inst.Span != nil {
		if s.pendSpans == nil {
			s.pendSpans = map[model.EntityID]*obs.Span{}
		}
		s.pendSpans[ent] = inst.Span
	}
	s.pendQ = append(s.pendQ, ent)
	s.held.Set(int(nid))
	s.executed.Set(int(nid))
	for len(s.pendQ) > s.e.pipeline {
		oldest := s.pendQ[0]
		s.pendQ = s.pendQ[1:]
		if err := s.joinAcquire(ctx, oldest); err != nil {
			return s.mapTableErr(err)
		}
	}
	return nil
}

// joinAcquire collects the in-flight acquire of ent, if any. On failure
// the optimistic hold is rolled back (the completion's Wait guarantees
// nothing is held on a non-nil return) and the session is poisoned.
func (s *Session) joinAcquire(ctx context.Context, ent model.EntityID) error {
	comp := s.pendAcq[ent]
	if comp == nil {
		return nil
	}
	delete(s.pendAcq, ent)
	sp := s.pendSpans[ent] // nil map and absent entity both yield nil
	if sp != nil {
		delete(s.pendSpans, ent)
	}
	if err := comp.Wait(ctx); err != nil {
		s.held.Clear(s.lockNode(ent))
		if s.pipeErr == nil {
			s.pipeErr = err
		}
		return err // failed op: the span is dropped, never committed
	}
	// The client's Wait stamped StageWakeup; the join is the span's last
	// holder, so it commits here.
	s.e.recordSpan(sp)
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
	// In-process releases are traced session-level only (submit + wakeup):
	// the interesting decomposition is the acquire's, and wire releases
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
		s.e.recordSpan(sp)
	}
	s.noteReleased(ent)
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
// even the one of the entity it unlocks: the release then names "the grant
// my acquire records" instead of a fencing token (netlock's token 0), and
// ordering it behind that acquire — and behind the instance's other
// in-flight ones — is the table's job, not the session's: the netlock
// server runs the instance's operations in wire order (program order on
// each server's slice), and the cluster backend fences partition
// switches, so the executed schedule stays inside the certified system
// while this goroutine runs ahead. The acquire's completion stays pending
// and Commit joins it.
func (s *Session) unlockAsync(ent model.EntityID, lnid int, nid model.NodeID) error {
	if s.pipeErr != nil {
		return s.mapTableErr(s.pipeErr)
	}
	if s.rels == nil {
		s.rels = make([]locktable.Completion, 0, s.tmpl.N()/2) // one per Unlock node
	}
	s.rels = append(s.rels, s.e.releaseAsync(ent, s.key))
	s.noteReleased(ent)
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
// Abort, exactly as after a failed synchronous Lock or Unlock. A pending
// deadlock-handling signal does not block a commit — the transaction
// finished, so the wound is moot.
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
	// The acquires Unlock did not wait for settle first, in submission
	// order; joinAcquire records the first failure in pipeErr.
	for _, ent := range s.pendQ {
		s.joinAcquire(context.Background(), ent)
	}
	s.pendQ = nil
	if len(s.rels) > 0 {
		// The releases Unlock did not wait for settle here: this is where
		// their errors (a stale fence after lease expiry, a dead server)
		// surface. A failed release means the attempt did not cleanly
		// return its locks.
		for _, rc := range s.rels {
			if err := rc.Wait(context.Background()); err != nil && s.pipeErr == nil {
				s.pipeErr = err
			}
		}
		s.rels = nil
	}
	if s.pipeErr != nil {
		if errors.Is(s.pipeErr, locktable.ErrStopped) {
			return ErrClosed
		}
		return fmt.Errorf("runtime: %s: commit: in-flight operation failed: %w", s.tmpl.Name(), s.pipeErr)
	}
	s.done = true
	s.flushOps()
	s.dropAbortCh()
	s.e.commits.Add(1)
	return nil
}

// flushOps moves the session's per-path op tallies into the engine's
// counters. Called once at every session end (commit, abort, discard),
// so Engine.Counters lags a live session's in-flight operations but is
// exact once the session closes.
func (s *Session) flushOps() {
	if s.nsync != 0 {
		s.e.syncOps.Add(uint64(s.key.ID), s.nsync)
		s.nsync = 0
	}
	if s.npipe != 0 {
		s.e.pipelinedOps.Add(uint64(s.key.ID), s.npipe)
		s.npipe = 0
	}
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
	select {
	case <-s.e.stop:
		s.discard()
		return nil
	default:
	}
	s.done = true
	s.flushOps()
	if len(s.pendAcq) > 0 {
		// Resolve every in-flight acquire with an already-cancelled
		// context before the release wave: each Wait withdraws its request
		// — or releases the grant that raced the withdrawal — so nothing
		// can land *after* the wave and leak. An acquire that did resolve
		// into a grant keeps its fence record and is swept by ReleaseAll
		// below like any other hold. The Waits run concurrently so every
		// cancel is on the wire at once: the server answers one instance's
		// operations in submission order, so a Wait on an acquire queued
		// behind one parked on a foreign holder returns only after the
		// parked one's cancel has been sent — one at a time, in map order,
		// that is a coin flip between returning at once and stalling until
		// the client's reply timeout fences the whole connection.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var wg sync.WaitGroup
		for _, comp := range s.pendAcq {
			wg.Add(1)
			go func() {
				defer wg.Done()
				comp.Wait(ctx)
			}()
		}
		wg.Wait()
		s.pendAcq = nil
		s.pendQ = nil
		s.pendSpans = nil // aborted ops' spans are dropped, never committed
	}
	// One pipelined release wave; a mid-abort shutdown leaves the rest to
	// die with the table.
	s.e.table.ReleaseAll(s.Held(), s.key)
	s.held.Reset()
	s.dropAbortCh()
	s.e.aborts.Add(1)
	return nil
}

// discard closes a session during engine shutdown: it only deregisters the
// abort signal. The lock table dies with the engine, so nothing is
// released, and the session is counted as Discarded, not aborted —
// shutdown is not a transaction abort.
func (s *Session) discard() {
	if s.done {
		return
	}
	s.done = true
	s.flushOps()
	s.dropAbortCh()
	s.e.discards.Add(1)
}

// dropAbortCh deregisters the session's abort signal from the engine. A
// session without one (StrategyNone) takes no engine lock.
func (s *Session) dropAbortCh() {
	if s.abortCh == nil {
		return
	}
	s.e.mu.Lock()
	delete(s.e.abortChs, s.key.ID)
	s.e.mu.Unlock()
}
