package locktable

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"distlock/internal/model"
	"distlock/internal/obs"
)

// shardedTable is the striped backend: entities are hashed across a fixed
// set of stripes, each a mutex guarding its entities' lock states, sized
// once at construction (resolveShards) and never resized.
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
//     Fast shared grants are ANONYMOUS — a count, not a holder set — so a
//     caller must not repeat a shared acquire, which a count cannot tell
//     from a new reader (see Table.Acquire). Databases over
//     maxFastPathEntities run mutex-only, shared holders in sholders.
//
//  2. Striping. The stripe count resolves from GOMAXPROCS by default
//     (Config.Shards > 0 pins it), and each stripe sits on its own cache
//     line, so independent entities grant under independent mutexes
//     without false sharing.
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
// writer blocks later readers that hold nothing; consecutive readers at
// the queue head are granted as one wave), except that a shared request of
// an instance holding another lock passes the queue whenever the holders
// admit it (Instance.Holding).
type shardedTable struct {
	// m counts grants/releases/queue samples (always on; normalized from
	// Config.Metrics). Striped padded atomics are hot-path safe, so
	// counting does not disable the CAS fast path.
	m *obs.TableMetrics

	// fast holds the per-entity packed reader state (fastSlot), indexed by
	// the dense EntityID. Nil for an oversized or absent database.
	fast []fastSlot

	// stripes is the fixed stripe slice; stripeIndex homes each entity.
	stripes []stripe

	// stopped is the flag every call reads; Close sets it, then closes
	// stop for the waiters parked in Acquire's select.
	stopped atomic.Bool
	stop    chan struct{}
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

// stripe is one mutex and the lock states it guards, padded to a cache
// line (8 B mutex + 8 B map pointer + 48 B) like fastSlot, so neighbouring
// stripes' mutexes never false-share.
type stripe struct {
	mu    sync.Mutex
	locks map[model.EntityID]*slock
	_     [48]byte
}

type slock struct {
	xheld    bool
	xholder  InstKey
	sholders map[InstKey]struct{} // identified shared holders; nil when none ever
	queue    []*waiter            // FIFO arrival order
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
// most one send, the grant, because the grant wave first removes the
// waiter from the queue under the stripe mutex.
//
// Waiters are pooled (waiterPool), channel included. Acquire puts one back
// only once its channel is empty and nothing can send to it: after
// receiving the grant, or after cancelWait, draining the token of a grant
// that raced the cancel. A waiter abandoned by Close is left to the
// collector.
type waiter struct {
	key     InstKey
	mode    Mode
	holding bool // Instance.Holding: a shared waiter may pass a blocked head
	ch      chan struct{}
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// resolveShards maps a Config.Shards value to the table's stripe count:
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
// serves until Close; it starts no goroutine.
func NewSharded(ddb *model.DDB, cfg Config) Table {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewTableMetrics()
	}
	t := &shardedTable{
		m:       cfg.Metrics,
		stripes: make([]stripe, resolveShards(cfg.Shards)),
		stop:    make(chan struct{}),
	}
	for i := range t.stripes {
		t.stripes[i].locks = map[model.EntityID]*slock{}
	}
	if ddb != nil && ddb.NumEntities() > 0 && ddb.NumEntities() <= maxFastPathEntities {
		t.fast = make([]fastSlot, ddb.NumEntities())
	}
	return t
}

// stripeIndex hashes an entity to a stripe. Entity IDs are dense small
// integers, but callers commonly touch STRIDED subsets (every k-th
// entity), which a plain modulo folds onto the stripes sharing a factor
// with k; the Fibonacci multiplier scatters strides before the reduction.
func stripeIndex(ent model.EntityID, n int) int {
	h := uint64(ent) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// lockStripe returns the entity's stripe, locked.
func (t *shardedTable) lockStripe(ent model.EntityID) *stripe {
	s := &t.stripes[stripeIndex(ent, len(t.stripes))]
	s.mu.Lock()
	return s
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
	if t.stopped.Load() {
		return ErrStopped
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
	if t.admitLocked(ent, l, mode, inst.Holding) {
		// Grant inline, no goroutine handoff.
		t.grantLocked(ent, l, inst.Key, mode)
		t.clearSlowModeIfIdleLocked(ent, l)
		s.mu.Unlock()
		return nil
	}
	t.m.QueueDepth.Record(int64(len(l.queue)))
	w := waiterPool.Get().(*waiter)
	w.key, w.mode, w.holding = inst.Key, mode, inst.Holding
	l.queue = append(l.queue, w)
	t.m.Waiting.Add(1)
	s.mu.Unlock()
	select {
	case <-w.ch:
		waiterPool.Put(w)
		return nil
	case <-ctx.Done():
		if !t.cancelWait(ent, w) {
			<-w.ch // the raced grant's token, sent under the stripe mutex
		}
		waiterPool.Put(w)
		return ctx.Err()
	case <-t.stop:
		return ErrStopped
	}
}

// TryAcquire implements Table: the inline-grant prefix of Acquire
// with a false return where Acquire would park. It never queues, so a
// false return has no side effect beyond the slow-mode fence Acquire
// itself would have set (and clears it again if the entity is idle).
func (t *shardedTable) TryAcquire(inst Instance, ent model.EntityID, mode Mode) (bool, error) {
	if t.stopped.Load() {
		return false, ErrStopped
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
	if t.admitLocked(ent, l, mode, inst.Holding) {
		t.grantLocked(ent, l, inst.Key, mode)
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
// nothing on return. It reports whether the request was still queued; if
// not, the grant's token is already buffered in w.ch.
func (t *shardedTable) cancelWait(ent model.EntityID, w *waiter) bool {
	s := t.lockStripe(ent)
	defer s.mu.Unlock()
	l := s.lockState(ent)
	if i := slices.Index(l.queue, w); i >= 0 {
		l.queue = slices.Delete(l.queue, i, i+1)
		t.m.Waiting.Add(-1)
		// Removing a queued writer can unblock the readers parked
		// behind it (and vice versa): run the grant wave.
		t.grantWaveLocked(ent, l)
		t.clearSlowModeIfIdleLocked(ent, l)
		return true
	}
	// Not queued: a grant raced the cancellation (the grant wave delivers
	// it and unqueues the waiter atomically under this stripe's mutex), so
	// release it — for an anonymous shared grant releaseLocked decrements
	// the fast-reader count it incremented.
	t.releaseLocked(ent, l, w.key)
	return false
}

func (t *shardedTable) Release(ent model.EntityID, key InstKey) error {
	if t.stopped.Load() {
		return ErrStopped
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

// grantWaveLocked drains the wait queue in FIFO order as far as
// compatibility allows: the head waiter is granted if compatible with the
// current holders, then the next — so consecutive readers are granted as
// one wave, and a writer is granted exactly when the last incompatible
// holder left. Where the wave stops at a blocked head, the shared waiters
// of holding instances behind it that are compatible with the holders are
// granted too (Instance.Holding). Caller holds the stripe mutex.
func (t *shardedTable) grantWaveLocked(ent model.EntityID, l *slock) {
	for len(l.queue) > 0 {
		w := l.queue[0]
		if !t.grantableLocked(ent, l, w.mode) {
			t.passHeadLocked(ent, l)
			return
		}
		l.queue = slices.Delete(l.queue, 0, 1)
		t.m.Waiting.Add(-1)
		t.grantLocked(ent, l, w.key, w.mode)
		w.ch <- struct{}{}
	}
}

// passHeadLocked grants every queued shared request of a holding instance
// behind the blocked head, when the holders admit a reader (no exclusive
// holder). Such a request may only park while an exclusive holder blocks
// it; once that holder leaves and a writer heads the queue again, it must
// not keep waiting on the writer (see Instance.Holding). Caller holds the
// stripe mutex.
func (t *shardedTable) passHeadLocked(ent model.EntityID, l *slock) {
	if len(l.queue) < 2 || !t.grantableLocked(ent, l, Shared) {
		return
	}
	kept := l.queue[:1]
	for _, w := range l.queue[1:] {
		if w.holding && w.mode == Shared {
			t.m.Waiting.Add(-1)
			t.grantLocked(ent, l, w.key, Shared)
			w.ch <- struct{}{}
			continue
		}
		kept = append(kept, w)
	}
	clear(l.queue[len(kept):])
	l.queue = kept
}

// admitLocked reports whether a request arriving at the entity is granted
// at once: it must be compatible with the holders, and either nothing is
// queued or it is a shared request of a holding instance, which passes the
// queue (Instance.Holding). Anything else parks behind the queue — a reader
// that holds nothing waits behind a queued writer rather than starving it.
// Caller holds the stripe mutex.
func (t *shardedTable) admitLocked(ent model.EntityID, l *slock, mode Mode, holding bool) bool {
	if len(l.queue) > 0 && (mode != Shared || !holding) {
		return false
	}
	return t.grantableLocked(ent, l, mode)
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
func (t *shardedTable) grantLocked(ent model.EntityID, l *slock, key InstKey, mode Mode) {
	switch {
	case mode == Shared && t.fast != nil && int(ent) < len(t.fast):
		t.fast[ent].state.Add(1)
	case mode == Shared:
		if l.sholders == nil {
			l.sholders = map[InstKey]struct{}{}
		}
		l.sholders[key] = struct{}{}
	default:
		l.xheld = true
		l.xholder = key
	}
	hint := uint64(key.ID)
	t.m.Grants.Inc(hint)
	if mode == Shared {
		t.m.SlowShared.Inc(hint)
	}
}

// ReleaseAll implements Table as ReleaseEach.
func (t *shardedTable) ReleaseAll(ents []model.EntityID, key InstKey) error {
	return ReleaseEach(t, ents, key)
}

func (t *shardedTable) Close() {
	if !t.stopped.Swap(true) {
		close(t.stop)
	}
}
