package locktable

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"distlock/internal/model"
	"distlock/internal/obs"
)

// The differential check: the sharded table against refTable, a reference
// that states the grant rules directly — a holder map, a FIFO queue and
// DESIGN.md's "Queue order" rule as one predicate. A driver replays a
// sequence of acquires, tries, releases and cancels on both, one at a
// time, and after every step the two must agree on what is granted and
// what is parked.

// refTable is the reference. It is single-threaded and never blocks: a
// request it cannot grant waits in its entity's queue until a release or
// a cancel lets the rule admit it.
type refTable struct {
	holders map[model.EntityID]map[InstKey]Mode
	queues  map[model.EntityID][]*refReq
}

// refReq is one request: the instance, the entity, the mode and the
// Instance.Holding bit it arrived with.
type refReq struct {
	key     InstKey
	ent     model.EntityID
	mode    Mode
	holding bool
}

func newRefTable() *refTable {
	return &refTable{holders: map[model.EntityID]map[InstKey]Mode{}, queues: map[model.EntityID][]*refReq{}}
}

// admits is the rule. A request is granted iff it is compatible with the
// entity's holders — none exclusive, and none at all for an exclusive
// request — and either no request is queued ahead of it, or it is a
// shared request of an instance that holds a lock.
func (r *refTable) admits(q *refReq, queuedAhead bool) bool {
	for _, m := range r.holders[q.ent] {
		if m == Exclusive || q.mode == Exclusive {
			return false
		}
	}
	return !queuedAhead || (q.mode == Shared && q.holding)
}

func (r *refTable) grant(q *refReq) {
	if r.holders[q.ent] == nil {
		r.holders[q.ent] = map[InstKey]Mode{}
	}
	r.holders[q.ent][q.key] = q.mode
}

// acquire grants the request if the rule admits it on arrival; otherwise
// it queues the request when park is set (Acquire) and drops it when not
// (TryAcquire). It reports whether the request was granted.
func (r *refTable) acquire(q *refReq, park bool) bool {
	if r.admits(q, len(r.queues[q.ent]) > 0) {
		r.grant(q)
		return true
	}
	if park {
		r.queues[q.ent] = append(r.queues[q.ent], q)
	}
	return false
}

// wave grants, in queue order, every queued request the rule admits, and
// returns them.
func (r *refTable) wave(ent model.EntityID) []*refReq {
	var granted, kept []*refReq
	for _, q := range r.queues[ent] {
		if r.admits(q, len(kept) > 0) {
			r.grant(q)
			granted = append(granted, q)
		} else {
			kept = append(kept, q)
		}
	}
	r.queues[ent] = kept
	return granted
}

func (r *refTable) release(ent model.EntityID, key InstKey) []*refReq {
	delete(r.holders[ent], key)
	return r.wave(ent)
}

func (r *refTable) cancel(q *refReq) []*refReq {
	r.queues[q.ent] = slices.DeleteFunc(r.queues[q.ent], func(p *refReq) bool { return p == q })
	return r.wave(q.ent)
}

func (r *refTable) holds(ent model.EntityID, key InstKey) bool {
	_, ok := r.holders[ent][key]
	return ok
}

func (r *refTable) parked() (n int64) {
	for _, q := range r.queues {
		n += int64(len(q))
	}
	return n
}

// The driver's input is one byte per step: bits 0-1 the kind, 2-3 the
// instance (of 4), 4-5 the entity (of 3, mod 3), 6 the mode and 7 the
// Holding bit. A step the callers of a table never take is skipped: an
// acquire or try by an instance that holds or awaits the entity, any step
// but a cancel by an instance whose Acquire is parked, a release of what
// the instance does not hold, and a cancel with nothing parked.
const (
	stepAcquire = iota
	stepTry
	stepRelease
	stepCancel
)

func step(kind, id, ent int, mode Mode, holding bool) byte {
	b := byte(kind | id<<2 | ent<<4 | int(mode)<<6)
	if holding {
		b |= 1 << 7
	}
	return b
}

// referenceSeeds are the committed corpus. Each names the rule it pins.
var referenceSeeds = [][]byte{
	// A shared request parks behind an exclusive holder and is granted
	// when it leaves.
	{step(stepAcquire, 0, 0, Exclusive, false), step(stepAcquire, 1, 0, Shared, false), step(stepRelease, 0, 0, 0, false)},
	// A holding reader parked behind an exclusive holder passes the
	// writer queued ahead of it in the wave that grants the head reader.
	{step(stepAcquire, 0, 0, Exclusive, false), step(stepAcquire, 1, 0, Shared, false), step(stepAcquire, 2, 0, Exclusive, false),
		step(stepAcquire, 3, 1, Exclusive, false), step(stepAcquire, 3, 0, Shared, true), step(stepRelease, 0, 0, 0, false),
		step(stepRelease, 1, 0, 0, false), step(stepRelease, 3, 0, 0, false)},
	// A reader's release through the mutex path, its slow-mode bit set
	// by the writer queued behind it, grants that writer.
	{step(stepAcquire, 0, 0, Shared, false), step(stepAcquire, 1, 0, Exclusive, false), step(stepRelease, 0, 0, 0, false),
		step(stepAcquire, 2, 0, Shared, false), step(stepRelease, 1, 0, 0, false)},
	// A try that misses queues nothing; one that fits is granted.
	{step(stepAcquire, 0, 0, Exclusive, false), step(stepTry, 1, 0, Exclusive, false), step(stepTry, 1, 0, Shared, true),
		step(stepTry, 1, 1, Shared, false), step(stepRelease, 0, 0, 0, false), step(stepTry, 2, 0, Shared, false)},
	// Cancelling a queued writer grants the readers behind it.
	{step(stepAcquire, 0, 2, Shared, false), step(stepAcquire, 1, 2, Exclusive, false), step(stepAcquire, 2, 2, Shared, false),
		step(stepCancel, 1, 0, 0, false), step(stepRelease, 0, 2, 0, false), step(stepRelease, 2, 2, 0, false)},
	// A reader that holds nothing keeps FIFO order behind a queued
	// writer; a holding one passes it on arrival.
	{step(stepAcquire, 0, 1, Shared, false), step(stepAcquire, 1, 1, Exclusive, false), step(stepAcquire, 2, 1, Shared, false),
		step(stepAcquire, 3, 1, Shared, true), step(stepRelease, 0, 1, 0, false), step(stepRelease, 3, 1, 0, false)},
}

// diffTables are the tables the driver checks: the sharded table over a
// 3-entity database, and over the large one.
var diffTables = []backendCase{
	{"sharded", NewSharded},
	{"sharded-large", newLargeTable},
}

// diffWait bounds how long the driver waits for the table to reach the
// state the reference is in; the table gets there in microseconds.
const diffWait = 5 * time.Second

// pending is a parked Acquire: its request, its context's cancel and
// where its goroutine delivers Acquire's result.
type pending struct {
	q      *refReq
	cancel context.CancelFunc
	done   chan error
}

// runDifferential replays steps on tab and the reference.
func runDifferential(t *testing.T, tab Table, m *obs.TableMetrics, steps []byte) {
	ref := newRefTable()
	parkedOn := map[InstKey]*pending{}
	defer func() {
		tab.Close() // wakes every request still parked
		for _, p := range parkedOn {
			p.cancel()
			<-p.done
		}
	}()
	granted := func(op string, qs []*refReq) {
		t.Helper()
		for _, q := range qs {
			p := parkedOn[q.key]
			delete(parkedOn, q.key)
			select {
			case err := <-p.done:
				if err != nil {
					t.Fatalf("%s: the reference granted %v %v on %d, the table returned %v", op, q.key, q.mode, q.ent, err)
				}
			case <-time.After(diffWait):
				t.Fatalf("%s: the reference granted %v %v on %d, the table keeps it parked", op, q.key, q.mode, q.ent)
			}
		}
	}
	agree := func(op string) {
		t.Helper()
		want := ref.parked()
		deadline := time.Now().Add(diffWait)
		for m.Waiting.Load() != want && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
		if got := m.Waiting.Load(); got != want {
			t.Fatalf("%s: %d requests parked, the reference parks %d", op, got, want)
		}
		for _, p := range parkedOn {
			select {
			case err := <-p.done:
				t.Fatalf("%s: the table answered %v %v on %d with %v, the reference keeps it parked", op, p.q.key, p.q.mode, p.q.ent, err)
			default:
			}
		}
	}
	for i, b := range steps {
		kind, key, ent := int(b&3), InstKey{ID: int(b >> 2 & 3)}, model.EntityID(int(b>>4&3)%3)
		q := &refReq{key: key, ent: ent, mode: Mode(b >> 6 & 1), holding: b>>7 != 0}
		p, blocked := parkedOn[key]
		busy := blocked || ref.holds(ent, key)
		at := fmt.Sprintf("step %d (%s)", i, [...]string{"acquire", "try", "release", "cancel"}[kind])
		switch {
		case kind == stepAcquire && !busy:
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- tab.Acquire(ctx, Instance{Key: key, Holding: q.holding}, ent, q.mode) }()
			parkedOn[key] = &pending{q: q, cancel: cancel, done: done}
			if ref.acquire(q, true) {
				granted(at, []*refReq{q})
			}
			agree(at)
		case kind == stepTry && !busy:
			got, err := tab.TryAcquire(Instance{Key: key, Holding: q.holding}, ent, q.mode)
			if want := ref.acquire(q, false); got != want || err != nil {
				t.Fatalf("%s: TryAcquire(%v, %d, %v) = %v, %v; the reference says %v", at, key, ent, q.mode, got, err, want)
			}
			agree(at)
		case kind == stepRelease && !blocked && ref.holds(ent, key):
			if err := tab.Release(ent, key); err != nil {
				t.Fatal(err)
			}
			granted(at, ref.release(ent, key))
			agree(at)
		case kind == stepCancel && blocked:
			delete(parkedOn, key)
			p.cancel()
			if err := <-p.done; !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: a cancelled parked request returned %v", at, err)
			}
			granted(at, ref.cancel(p.q))
			agree(at)
		}
	}
}

// differential runs steps on each diffTables table.
func differential(t *testing.T, steps []byte) {
	if len(steps) > 64 {
		steps = steps[:64]
	}
	for _, bc := range diffTables {
		m := obs.NewTableMetrics()
		ddb := model.NewDDB()
		for _, name := range []string{"e0", "e1", "e2"} {
			ddb.MustEntity(name, "s0")
		}
		t.Run(bc.name, func(t *testing.T) { runDifferential(t, bc.make(ddb, Config{Metrics: m}), m, steps) })
	}
}

// TestShardedMatchesReference replays the committed corpus; it is the
// fuzzer's seed run under its own name, so the race gates can list it.
func TestShardedMatchesReference(t *testing.T) {
	for i, steps := range referenceSeeds {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { differential(t, steps) })
	}
}

// FuzzShardedMatchesReference: whatever the sequence of acquires, tries,
// releases and cancels over up to 4 instances and 3 entities, the
// sharded table, over a small database and over a large one, grants and
// parks exactly what the reference does after every step. Fuzz with
// `go test -run '^$' -fuzz FuzzShardedMatchesReference -fuzztime 10s ./internal/locktable`.
func FuzzShardedMatchesReference(f *testing.F) {
	for _, steps := range referenceSeeds {
		f.Add(steps)
	}
	f.Fuzz(differential)
}
