package locktable

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distlock/internal/model"
	"distlock/internal/obs"
)

// shardedTable is the contention-adaptive striped backend: entities are
// split across stripes, each a mutex guarding its entities' lock states,
// and the stripe set itself adapts to the observed load.
//
// Two mechanisms keep the hot path off the mutexes:
//
//  1. An atomic shared-grant fast path. Each entity owns a padded atomic
//     word (its own cache line) packing a fast-reader count with a
//     slow-mode bit. While the bit is clear the entity has no exclusive
//     holder and no wait queue, so a shared Acquire is one CAS increment
//     and a shared Release one CAS decrement — no stripe mutex, no
//     convoy. The moment a writer arrives it sets the bit under the
//     stripe mutex, which atomically fences out new fast readers: they
//     observe the bit and fall through to the mutex path, parking FIFO
//     behind the writer exactly as before. Draining fast readers release
//     through the mutex (the bit routes them there), so the writer is
//     granted precisely when the count hits zero. FIFO
//     writer-blocks-later-readers semantics are preserved bit-for-bit;
//     the conformance suite proves it.
//
//     Fast shared grants are ANONYMOUS — a count, not a holder set — so
//     the fast path is only enabled when nothing needs per-holder
//     identity: it is off under WoundWait (wound decisions compare
//     holder priorities), under Trace (the grant log records identity),
//     and under Config.DisableSharedFastPath (for embedders like the
//     netlock server that attribute holders themselves). Snapshot
//     attributes waiters blocked on fast readers to AnonReaderKey.
//
//  2. Contention-adaptive striping. The stripe count resolves from
//     GOMAXPROCS by default (Config.Shards > 0 pins it), each stripe
//     counts its slow-path operations in a padded atomic, and a cheap
//     background probe samples the counters every Config.StripeProbe:
//     when one stripe absorbs a disproportionate share of the traffic
//     the set is doubled (up to the MaxShards cap) by an atomic
//     stripe-set swap that re-homes the lock states while holding every
//     old stripe mutex. StripeStats reports the observed layout.
//
// This is the backend the paper's program cashes in with — the one
// in-process table, for every tier. A mix that static certification
// (Theorems 3–5) proved deadlock-free needs no deadlock handling, hence
// no wait-for bookkeeping at grant time, hence no reason to serialize
// independent entities through one goroutine — or, for a crowd of
// readers on one scorching entity, through one mutex.
//
// Lock modes: each entity is held by at most one exclusive holder or any
// number of shared holders. Grant order is FIFO per entity (a waiting
// writer blocks later readers; consecutive readers at the queue head are
// granted as one wave) or oldest-first under wound-wait.
type shardedTable struct {
	cfg Config

	// m counts grants/releases/wounds (always on; normalized from
	// Config.Metrics) and tr is the optional lossy event tracer. Both are
	// hot-path safe: striped padded atomics and a mutex-free ring, so
	// neither disables the CAS fast path the way Config.Trace does.
	m  *obs.TableMetrics
	tr *obs.Ring

	// fast holds the per-entity packed reader state (fastSlot), indexed by
	// the dense EntityID. Nil when the fast path is disabled (wound-wait,
	// trace, explicit opt-out, or an oversized/absent database).
	fast []fastSlot

	// set is the current stripe set. Readers load it, lock the target
	// stripe, and re-check the pointer (a resize may have swapped the set
	// between the load and the lock); resizes install a doubled set while
	// holding every old stripe mutex.
	set       atomic.Pointer[stripeSet]
	maxShards int
	splits    atomic.Int64

	// resizeMu serializes resizes against each other and against the
	// whole-table walks (Wound, Snapshot), which need a stable set without
	// per-stripe retries. Lock order: resizeMu, then stripe mutexes.
	resizeMu sync.Mutex

	// traceLog is the table-level grant log (Config.Trace only — which
	// disables the fast path, so every grant passes through here). It is
	// table-level rather than per-stripe so it survives resizes; per-entity
	// order is preserved because same-entity grants serialize under the
	// entity's stripe mutex. Lock order: stripe mutex, then traceMu.
	traceMu  sync.Mutex
	traceLog []GrantEvent

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// fastSlot is one entity's packed atomic reader state, padded to a cache
// line so reader crowds on different entities never false-share.
type fastSlot struct {
	// state packs the fast-reader count (low 32 bits) with slowModeBit.
	state atomic.Int64
	_     [56]byte
}

const (
	// slowModeBit marks an entity as mutex-managed: set whenever the
	// entity has any slow-path state (an exclusive holder, identified
	// shared holders, or a non-empty wait queue). While set, shared
	// Acquire/Release fall through to the stripe mutex; it is cleared,
	// under the mutex, when the slow state empties.
	slowModeBit = int64(1) << 32
	// fastCountMask extracts the fast-reader count.
	fastCountMask = slowModeBit - 1

	// maxFastPathEntities bounds the fast-slot array (64 B per entity);
	// beyond it the table falls back to mutex-only operation.
	maxFastPathEntities = 1 << 18
)

// AnonReaderID is the instance ID Snapshot reports as the holder of an
// entity held by anonymous fast-path readers (see Config
// DisableSharedFastPath). The sentinel never issues requests of its own,
// so it cannot appear as a waiter and cannot close a wait-for cycle.
const AnonReaderID = -1

// AnonReaderKey is the InstKey form of AnonReaderID.
var AnonReaderKey = InstKey{ID: AnonReaderID, Epoch: 0}

type stripeSet struct {
	stripes []*stripe
}

type stripe struct {
	mu    sync.Mutex
	locks map[model.EntityID]*slock

	// retired marks a stripe replaced by a resize. Written by grow while
	// holding mu (it holds every old stripe mutex across the swap), read
	// by lockStripe after locking mu — so a plain bool, no atomics on the
	// hot path.
	retired bool

	// ops counts slow-path operations against this stripe — the
	// contention signal the split probe samples. Guarded by mu (a plain
	// increment rides the mutex the operation already holds; the probe
	// briefly locks each stripe to sample). lastOps is the probe
	// goroutine's previous sample (touched only by it).
	ops     int64
	lastOps int64
}

type slock struct {
	xheld    bool
	xholder  InstKey
	xprio    int64
	sholders map[InstKey]int64 // identified shared holders -> prio; nil when none ever
	queue    []*waiter         // FIFO arrival order
}

// holds reports whether key currently holds the entity in an identified
// way (exclusive, or shared with the fast path off). Anonymous fast-path
// reader grants are a count, not a holder set, so they are invisible here
// by construction.
func (l *slock) holds(key InstKey) bool {
	if l.xheld && l.xholder == key {
		return true
	}
	_, ok := l.sholders[key]
	return ok
}

// grantable reports whether a request in the given mode is compatible
// with the identified holders (ignoring the queue — queue fairness is the
// caller's business; ignoring fast readers — grantableLocked folds those
// in).
func (l *slock) grantable(mode Mode) bool {
	if l.xheld {
		return false
	}
	return mode == Shared || len(l.sholders) == 0
}

// waiter is one parked request. The channel is buffered and receives at
// most one send — nil for a grant, ErrWounded for a wound — because both
// senders first remove the waiter from the queue under the stripe mutex.
type waiter struct {
	key  InstKey
	prio int64
	mode Mode
	ch   chan error
}

// resolveShards maps a Config.Shards value to an initial stripe count:
// an explicit positive count is honored; otherwise the count resolves
// from GOMAXPROCS (4x, rounded up to a power of two, clamped to
// [DefaultShards, 512]) so the table scales with the machine instead of
// a compile-time constant.
func resolveShards(n int) int {
	if n > 0 {
		return n
	}
	want := 4 * runtime.GOMAXPROCS(0)
	s := DefaultShards
	for s < want && s < 512 {
		s <<= 1
	}
	return s
}

// NewSharded builds the striped backend over the database. The table
// serves until Close.
func NewSharded(ddb *model.DDB, cfg Config) Table {
	initial := resolveShards(cfg.Shards)
	maxShards := initial
	switch {
	case cfg.MaxShards > initial:
		maxShards = cfg.MaxShards
	case cfg.Shards <= 0 && cfg.MaxShards == 0:
		// Adaptive by default: a GOMAXPROCS-resolved table may split up
		// to 8x when the probe sees a hot stripe. An explicit Shards pin
		// stays static unless MaxShards asks otherwise.
		maxShards = min(initial*8, 2048)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewTableMetrics()
	}
	t := &shardedTable{
		cfg:       cfg,
		m:         cfg.Metrics,
		tr:        cfg.Tracer,
		maxShards: maxShards,
		stop:      make(chan struct{}),
	}
	if !cfg.WoundWait && !cfg.Trace && !cfg.DisableSharedFastPath &&
		ddb != nil && ddb.NumEntities() > 0 && ddb.NumEntities() <= maxFastPathEntities {
		t.fast = make([]fastSlot, ddb.NumEntities())
	}
	t.set.Store(newStripeSet(initial))
	probeEvery := cfg.StripeProbe
	if probeEvery == 0 {
		probeEvery = 15 * time.Millisecond
	}
	if maxShards > initial && probeEvery > 0 {
		t.wg.Add(1)
		go t.probe(probeEvery)
	}
	return t
}

func newStripeSet(n int) *stripeSet {
	set := &stripeSet{stripes: make([]*stripe, n)}
	for i := range set.stripes {
		set.stripes[i] = &stripe{locks: map[model.EntityID]*slock{}}
	}
	return set
}

// stripeIndex hashes an entity to a stripe. Entity IDs are dense small
// integers, but callers commonly touch STRIDED subsets (every k-th
// entity), which a plain modulo folds onto the stripes sharing a factor
// with k; the Fibonacci multiplier scatters strides before the reduction.
func stripeIndex(ent model.EntityID, n int) int {
	h := uint64(ent) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// lockStripe resolves the entity's stripe under the CURRENT stripe set
// and returns it locked, bumping its contention counter. The retired
// re-check covers a resize racing the lookup: the stripe that was locked
// may have been retired, in which case the entity's state has moved and
// the lookup restarts against the new set.
func (t *shardedTable) lockStripe(ent model.EntityID) *stripe {
	for {
		set := t.set.Load()
		s := set.stripes[stripeIndex(ent, len(set.stripes))]
		s.mu.Lock()
		if !s.retired {
			s.ops++
			return s
		}
		s.mu.Unlock()
	}
}

func (s *stripe) lockState(e model.EntityID) *slock {
	l := s.locks[e]
	if l == nil {
		l = &slock{}
		s.locks[e] = l
	}
	return l
}

// fastCount returns the entity's current anonymous fast-reader count.
func (t *shardedTable) fastCount(ent model.EntityID) int64 {
	if t.fast == nil || int(ent) >= len(t.fast) {
		return 0
	}
	return t.fast[ent].state.Load() & fastCountMask
}

// setSlowMode sets the entity's slow-mode bit, fencing new fast readers
// onto the mutex path. Called under the entity's stripe mutex before any
// slow state is created, so the invariant holds: slow state implies the
// bit is set, hence a clear bit implies a shared CAS grant is safe.
func (t *shardedTable) setSlowMode(ent model.EntityID) {
	if t.fast == nil || int(ent) >= len(t.fast) {
		return
	}
	slot := &t.fast[ent].state
	for {
		st := slot.Load()
		if st&slowModeBit != 0 {
			return
		}
		if slot.CompareAndSwap(st, st|slowModeBit) {
			return
		}
	}
}

// clearSlowModeIfIdleLocked clears the slow-mode bit once the entity has
// no slow state left (no exclusive holder, no identified shared holders,
// no queue), re-arming the CAS fast path. Remaining fast readers are fine
// — a clear bit with a positive count is the normal fast mode. Caller
// holds the entity's stripe mutex.
func (t *shardedTable) clearSlowModeIfIdleLocked(ent model.EntityID, l *slock) {
	if t.fast == nil || int(ent) >= len(t.fast) {
		return
	}
	if l.xheld || len(l.sholders) > 0 || len(l.queue) > 0 {
		return
	}
	slot := &t.fast[ent].state
	for {
		st := slot.Load()
		if st&slowModeBit == 0 {
			return
		}
		if slot.CompareAndSwap(st, st&^slowModeBit) {
			return
		}
	}
}

func (t *shardedTable) Acquire(ctx context.Context, inst Instance, ent model.EntityID, mode Mode) error {
	select {
	case <-t.stop:
		return ErrStopped
	default:
	}
	if mode == Shared && t.fast != nil && int(ent) < len(t.fast) {
		// The atomic fast path: while the slow-mode bit is clear the
		// entity has no writer and no queue, so a shared grant is one CAS.
		slot := &t.fast[ent].state
		for {
			st := slot.Load()
			if st&slowModeBit != 0 {
				break // a writer (or queue) owns the entity: mutex path
			}
			if slot.CompareAndSwap(st, st+1) {
				// One striped inc, not two: FastHits implies a grant and
				// Snapshot folds it into the grant total.
				t.m.FastHits.Inc(uint64(inst.Key.ID))
				t.tr.Record(obs.EvGrant, int(ent), inst.Key.ID, inst.Key.Epoch, uint8(mode))
				return nil
			}
		}
	}
	s := t.lockStripe(ent)
	l := s.lockState(ent)
	if l.holds(inst.Key) {
		// Duplicate (sessions reject re-locks before they reach the table).
		s.mu.Unlock()
		return nil
	}
	// Any slow state about to be created (a grant or a queued waiter)
	// must be visible to the CAS path first, so late fast readers queue
	// FIFO instead of slipping past.
	t.setSlowMode(ent)
	if len(l.queue) == 0 && t.grantableLocked(ent, l, mode) {
		// Grant inline, no goroutine handoff. The queue must be empty — a
		// reader arriving behind a waiting writer parks behind it (FIFO
		// fairness), it does not slip past on compatibility.
		t.grantLocked(ent, l, inst.Key, inst.Prio, mode)
		t.clearSlowModeIfIdleLocked(ent, l)
		s.mu.Unlock()
		return nil
	}
	t.m.QueueDepth.Record(int64(len(l.queue)))
	w := &waiter{key: inst.Key, prio: inst.Prio, mode: mode, ch: make(chan error, 1)}
	l.queue = append(l.queue, w)
	if t.cfg.WoundWait && t.cfg.OnWound != nil {
		// An older requester wounds every CONFLICTING younger holder.
		// Delivered inside the critical section so the victims provably
		// still hold the entity — a Release racing the decision would
		// otherwise make the wound spurious. OnWound must not call back
		// into the table (see Config), so holding the stripe is safe.
		// (Wound-wait disables the fast path, so every shared holder is
		// identified here.)
		if l.xheld && inst.Prio < l.xprio {
			t.cfg.OnWound(l.xholder.ID)
		}
		if mode == Exclusive {
			for hk, hp := range l.sholders {
				if inst.Prio < hp {
					t.cfg.OnWound(hk.ID)
				}
			}
		}
	}
	s.mu.Unlock()
	select {
	case err := <-w.ch:
		return err // nil: granted; ErrWounded: withdrawn by Wound
	case <-ctx.Done():
		t.cancelWait(ent, w)
		return ctx.Err()
	case <-inst.Doomed:
		t.cancelWait(ent, w)
		return ErrWounded
	case <-t.stop:
		return ErrStopped
	}
}

// TryAcquire implements TryAcquirer: the inline-grant prefix of Acquire
// with a false return where Acquire would park. It never queues, so a
// false return has no side effect beyond the slow-mode fence Acquire
// itself would have set (and clears it again if the entity is idle).
func (t *shardedTable) TryAcquire(inst Instance, ent model.EntityID, mode Mode) (bool, error) {
	select {
	case <-t.stop:
		return false, ErrStopped
	default:
	}
	if mode == Shared && t.fast != nil && int(ent) < len(t.fast) {
		slot := &t.fast[ent].state
		for {
			st := slot.Load()
			if st&slowModeBit != 0 {
				break
			}
			if slot.CompareAndSwap(st, st+1) {
				// One striped inc, not two: FastHits implies a grant and
				// Snapshot folds it into the grant total.
				t.m.FastHits.Inc(uint64(inst.Key.ID))
				t.tr.Record(obs.EvGrant, int(ent), inst.Key.ID, inst.Key.Epoch, uint8(mode))
				return true, nil
			}
		}
	}
	s := t.lockStripe(ent)
	l := s.lockState(ent)
	if l.holds(inst.Key) {
		s.mu.Unlock()
		return true, nil
	}
	t.setSlowMode(ent)
	if len(l.queue) == 0 && t.grantableLocked(ent, l, mode) {
		t.grantLocked(ent, l, inst.Key, inst.Prio, mode)
		t.clearSlowModeIfIdleLocked(ent, l)
		s.mu.Unlock()
		return true, nil
	}
	t.clearSlowModeIfIdleLocked(ent, l)
	s.mu.Unlock()
	return false, nil
}

// cancelWait removes a parked request, or releases its grant when a grant
// raced the cancellation: whichever way the race went, the instance holds
// nothing on return. The stripe is re-resolved — the one the request was
// parked under may have been retired by a resize.
func (t *shardedTable) cancelWait(ent model.EntityID, w *waiter) {
	s := t.lockStripe(ent)
	defer s.mu.Unlock()
	l := s.lockState(ent)
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			// Removing a queued writer can unblock the readers parked
			// behind it (and vice versa): run the grant wave.
			t.grantWaveLocked(ent, l)
			t.clearSlowModeIfIdleLocked(ent, l)
			return
		}
	}
	// Not queued: a grant or a wound raced the cancellation. The waiter's
	// buffered channel already holds the outcome (both senders deliver it
	// before unqueueing, under this stripe's mutex), so consult it: a
	// grant is released — for an anonymous shared grant releaseLocked
	// decrements the fast-reader count it incremented — and a wound left
	// nothing held. Keying the release off the outcome (not just the
	// instance key) matters precisely because fast grants are anonymous:
	// a wounded waiter must not decrement some innocent reader's count.
	select {
	case err := <-w.ch:
		if err == nil {
			t.releaseLocked(ent, l, w.key)
		}
	default:
		// Unreachable: removal and delivery are atomic under the mutex.
	}
}

func (t *shardedTable) Release(ent model.EntityID, key InstKey) error {
	select {
	case <-t.stop:
		return ErrStopped
	default:
	}
	if t.fast != nil && int(ent) < len(t.fast) {
		// The atomic fast path: a clear slow-mode bit means no writer and
		// no queue, so a positive count can only be fast readers — one CAS
		// decrement releases. With the bit set the release must go through
		// the mutex (a draining reader may be the one unblocking a parked
		// writer).
		slot := &t.fast[ent].state
		for {
			st := slot.Load()
			if st&slowModeBit != 0 || st&fastCountMask == 0 {
				break
			}
			if slot.CompareAndSwap(st, st-1) {
				t.m.Releases.Inc(uint64(key.ID))
				return nil
			}
		}
	}
	s := t.lockStripe(ent)
	t.releaseLocked(ent, s.lockState(ent), key)
	s.mu.Unlock()
	return nil
}

// releaseLocked frees the entity if key holds it and grants to the next
// compatible waiters. With the fast path on, shared holders are an
// anonymous count: any release that is not the exclusive holder's and not
// an identified shared holder's is taken as one fast reader leaving while
// the count is positive (the session layer guarantees callers only
// release what they hold). Caller holds the stripe mutex.
func (t *shardedTable) releaseLocked(ent model.EntityID, l *slock, key InstKey) {
	wasExclusive := false
	switch {
	case l.xheld && l.xholder == key:
		l.xheld = false
		wasExclusive = true
	default:
		if _, ok := l.sholders[key]; ok {
			delete(l.sholders, key)
		} else if t.fastCount(ent) > 0 {
			t.fast[ent].state.Add(-1)
		} else {
			return
		}
	}
	t.m.Releases.Inc(uint64(key.ID))
	t.grantWaveLocked(ent, l)
	if !wasExclusive {
		// Hysteresis: a departing writer leaves the slow-mode bit SET even
		// when the entity goes idle, so write-dominated entities don't pay
		// a set/clear CAS pair on the fast slot per lock/unlock cycle. A
		// set bit with no slow state is always legal (merely conservative:
		// shared traffic takes the mutex path); the first mutex-path reader
		// that finds the entity idle clears it and re-arms the CAS path.
		t.clearSlowModeIfIdleLocked(ent, l)
	}
}

// grantWaveLocked drains the wait queue as far as compatibility allows:
// repeatedly pick the next waiter (FIFO, or oldest-first under
// wound-wait) and grant it if compatible with the current holders — so
// consecutive readers are granted as one wave, and a writer is granted
// exactly when the last incompatible holder left. Caller holds the
// stripe mutex.
func (t *shardedTable) grantWaveLocked(ent model.EntityID, l *slock) {
	for len(l.queue) > 0 {
		pick := pickNext(l.queue, t.cfg.WoundWait)
		w := l.queue[pick]
		if !t.grantableLocked(ent, l, w.mode) {
			return
		}
		l.queue = append(l.queue[:pick], l.queue[pick+1:]...)
		t.grantLocked(ent, l, w.key, w.prio, w.mode)
		w.ch <- nil
	}
}

// pickNext is the grant-order policy: the index of the waiter a released
// entity goes to. Oldest-first (minimum priority, earliest-queued on
// ties) under wound-wait — preserving the invariant that a holder is
// older than its waiters — and FIFO otherwise.
func pickNext(queue []*waiter, woundWait bool) int {
	if !woundWait {
		return 0
	}
	pick := 0
	for i := range queue {
		if queue[i].prio < queue[pick].prio {
			pick = i
		}
	}
	return pick
}

// grantableLocked folds the anonymous fast readers into the slock's
// compatibility check: an exclusive grant additionally requires the
// fast-reader count to have drained to zero. Caller holds the stripe
// mutex (and, for Exclusive, has set the slow-mode bit, so the count can
// only fall).
func (t *shardedTable) grantableLocked(ent model.EntityID, l *slock, mode Mode) bool {
	if !l.grantable(mode) {
		return false
	}
	return mode == Shared || t.fastCount(ent) == 0
}

// grantLocked records the holder. With the fast path on, a shared grant
// joins the anonymous reader count (so a reader wave granted past a
// departing writer re-arms the CAS path as soon as the queue empties)
// rather than the identified holder map. Caller holds the stripe mutex.
func (t *shardedTable) grantLocked(ent model.EntityID, l *slock, key InstKey, prio int64, mode Mode) {
	switch {
	case mode == Shared && t.fast != nil && int(ent) < len(t.fast):
		t.fast[ent].state.Add(1)
	case mode == Shared:
		if l.sholders == nil {
			l.sholders = map[InstKey]int64{}
		}
		l.sholders[key] = prio
	default:
		l.xheld = true
		l.xholder = key
		l.xprio = prio
	}
	hint := uint64(key.ID)
	t.m.Grants.Inc(hint)
	if mode == Shared {
		t.m.SlowShared.Inc(hint)
	}
	t.tr.Record(obs.EvGrant, int(ent), key.ID, key.Epoch, uint8(mode))
	if t.cfg.Trace {
		// Trace disables the fast path, so every grant lands here with its
		// identity. Lock order: stripe mutex (held), then traceMu.
		t.traceMu.Lock()
		t.traceLog = append(t.traceLog, GrantEvent{Entity: ent, Inst: key.ID, Epoch: key.Epoch, Mode: mode})
		t.traceMu.Unlock()
	}
}

// Withdraw removes the instance's pending request or identified grant.
// Anonymous fast-path shared grants are not attributable to a key, so
// they are invisible to Withdraw — their owners release through Release,
// which is the only caller contract the session layer uses.
func (t *shardedTable) Withdraw(ent model.EntityID, key InstKey) bool {
	s := t.lockStripe(ent)
	defer s.mu.Unlock()
	l := s.lockState(ent)
	if l.holds(key) {
		t.releaseLocked(ent, l, key)
		return true
	}
	for i, q := range l.queue {
		if q.key == key {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			// Leave the parked Acquire (if any) to its own select arms; a
			// direct Withdraw caller owns the request lifecycle. The queue
			// changed, so later compatible waiters may now be grantable.
			t.grantWaveLocked(ent, l)
			t.clearSlowModeIfIdleLocked(ent, l)
			break
		}
	}
	return false
}

// ReleaseAll releases the listed entities. Stripe operations are plain
// mutex sections, so there is nothing to pipeline — the loop is already
// round-trip free. Every failed release surfaces in the joined error,
// not just the last one.
func (t *shardedTable) ReleaseAll(ents []model.EntityID, key InstKey) error {
	var errs []error
	for _, ent := range ents {
		if e := t.Release(ent, key); e != nil {
			errs = append(errs, e)
		}
	}
	return errors.Join(errs...)
}

func (t *shardedTable) Wound(key InstKey) {
	// resizeMu pins the stripe set for the whole walk (lock order:
	// resizeMu, then stripe mutexes — same as a resize).
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	for _, s := range t.set.Load().stripes {
		s.mu.Lock()
		for ent, l := range s.locks {
			removed := false
			for i := 0; i < len(l.queue); {
				if l.queue[i].key != key {
					i++
					continue
				}
				w := l.queue[i]
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				w.ch <- ErrWounded
				t.m.Wounds.Inc()
				t.tr.Record(obs.EvWound, int(ent), w.key.ID, w.key.Epoch, uint8(w.mode))
				removed = true
			}
			if removed {
				// A withdrawn writer may have been the only thing blocking
				// the readers queued behind it.
				t.grantWaveLocked(ent, l)
				t.clearSlowModeIfIdleLocked(ent, l)
			}
		}
		s.mu.Unlock()
	}
}

func (t *shardedTable) Snapshot() []WaitEdge {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	var edges []WaitEdge
	for _, s := range t.set.Load().stripes {
		s.mu.Lock()
		for ent, l := range s.locks {
			anon := t.fastCount(ent)
			if !l.xheld && len(l.sholders) == 0 && anon == 0 {
				continue
			}
			for _, w := range l.queue {
				if l.xheld {
					edges = append(edges, WaitEdge{
						Waiter: w.key, Holder: l.xholder,
						WaiterPrio: w.prio, HolderPrio: l.xprio,
					})
				}
				for hk, hp := range l.sholders {
					edges = append(edges, WaitEdge{
						Waiter: w.key, Holder: hk,
						WaiterPrio: w.prio, HolderPrio: hp,
					})
				}
				if anon > 0 {
					// Anonymous fast readers: one edge against the sentinel
					// holder. The sentinel never waits, so it cannot close a
					// cycle — detectors that must attribute shared holders
					// disable the fast path instead (see Config).
					edges = append(edges, WaitEdge{
						Waiter: w.key, Holder: AnonReaderKey,
						WaiterPrio: w.prio,
					})
				}
			}
		}
		s.mu.Unlock()
	}
	return edges
}

func (t *shardedTable) GrantLog() []GrantEvent {
	t.traceMu.Lock()
	defer t.traceMu.Unlock()
	out := make([]GrantEvent, len(t.traceLog))
	copy(out, t.traceLog)
	return out
}

func (t *shardedTable) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

// probe is the adaptive-striping background tick: it samples the
// per-stripe contention counters and doubles the stripe set when one
// stripe absorbs a disproportionate share of meaningful traffic.
func (t *shardedTable) probe(every time.Duration) {
	defer t.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		t.maybeSplit()
	}
}

const (
	// probeMinOps is the minimum per-tick slow-path traffic before a
	// split is considered: idle or trickle tables never resize.
	probeMinOps = 512
	// A stripe is hot when its per-tick ops exceed 1.5x the mean
	// (max*splitSkewDen > mean*splitSkewNum). The mild threshold matters:
	// at 2 stripes the worst possible max/mean ratio is only 2.
	splitSkewNum = 3
	splitSkewDen = 2
)

// maybeSplit samples the stripe counters and grows the set on observed
// skew.
func (t *shardedTable) maybeSplit() {
	set := t.set.Load()
	var total, maxDelta int64
	for _, s := range set.stripes {
		s.mu.Lock()
		cur := s.ops
		s.mu.Unlock()
		d := cur - s.lastOps
		s.lastOps = cur
		total += d
		if d > maxDelta {
			maxDelta = d
		}
	}
	if len(set.stripes) >= t.maxShards || total < probeMinOps {
		return
	}
	mean := total / int64(len(set.stripes))
	if mean < 1 {
		mean = 1
	}
	if maxDelta*splitSkewDen <= mean*splitSkewNum {
		return
	}
	t.grow(set)
}

// grow installs a doubled stripe set: every old stripe mutex is held
// across the swap, so no slow-path operation can observe an entity in
// two homes, and in-flight lockStripe calls re-check the set pointer
// after locking (see lockStripe).
func (t *shardedTable) grow(old *stripeSet) {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	if t.set.Load() != old {
		return // a concurrent grow won
	}
	n := min(len(old.stripes)*2, t.maxShards)
	if n <= len(old.stripes) {
		return
	}
	for _, s := range old.stripes {
		s.mu.Lock()
	}
	next := newStripeSet(n)
	for _, s := range old.stripes {
		for ent, l := range s.locks {
			next.stripes[stripeIndex(ent, n)].locks[ent] = l
		}
	}
	t.set.Store(next)
	t.splits.Add(1)
	t.m.Splits.Inc()
	for _, s := range old.stripes {
		s.retired = true
		s.mu.Unlock()
	}
}

// StripeStats describes the sharded backend's observed stripe layout:
// the current stripe count, how many adaptive splits have happened, and
// the cumulative slow-path operation count per stripe (the contention
// signal the split probe samples) — the "report hot stripes" half of the
// adaptive story, for operators and tests.
type StripeStats struct {
	Stripes int
	Splits  int64
	Ops     []int64
}

// SampleStripes reports the table's StripeStats, or false if the table
// is not the sharded backend. Safe on a running table.
func SampleStripes(tab Table) (StripeStats, bool) {
	t, ok := tab.(*shardedTable)
	if !ok {
		return StripeStats{}, false
	}
	set := t.set.Load()
	st := StripeStats{
		Stripes: len(set.stripes),
		Splits:  t.splits.Load(),
		Ops:     make([]int64, len(set.stripes)),
	}
	for i, s := range set.stripes {
		s.mu.Lock()
		st.Ops[i] = s.ops
		s.mu.Unlock()
	}
	return st, true
}
