package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"distlock/internal/model"
)

// backends are the lock-table implementations every session-semantics test
// runs against: the contract ("bit-for-bit" blocking semantics) is part of
// the Table interface, so the suite is table-driven over it.
var backends = []Backend{BackendSharded}

// forEachBackend runs the test once per lock-table backend.
func forEachBackend(t *testing.T, f func(t *testing.T, b Backend)) {
	t.Helper()
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) { f(t, b) })
	}
}

// sessionFixture builds a two-entity database and an engine over it.
func sessionFixture(t *testing.T, strat Strategy, b Backend) (*Engine, *model.DDB) {
	t.Helper()
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	e, err := NewEngine(d, EngineOptions{Strategy: strat, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d
}

func ent(t *testing.T, d *model.DDB, name string) model.EntityID {
	t.Helper()
	id, ok := d.Entity(name)
	if !ok {
		t.Fatalf("no entity %s", name)
	}
	return id
}

func TestSessionDrivesTemplate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e, d := sessionFixture(t, StrategyNone, b)
		tmpl := buildChain(d, "A", "Lx Ly Ux Uy")
		x, y := ent(t, d, "x"), ent(t, d, "y")

		s, err := e.Begin(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, step := range []func() error{
			func() error { return s.Lock(ctx, x, model.Exclusive) },
			func() error { return s.Lock(ctx, y, model.Exclusive) },
			func() error { return s.Unlock(x) },
			func() error { return s.Unlock(y) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Held(); len(got) != 0 {
			t.Fatalf("held after full run: %v", got)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if c := e.Counters(); c.Commits != 1 || c.Aborts != 0 {
			t.Fatalf("counters = %+v", c)
		}
	})
}

func TestSessionEnforcesPartialOrder(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e, d := sessionFixture(t, StrategyNone, b)
		tmpl := buildChain(d, "A", "Lx Ly Ux Uy")
		y := ent(t, d, "y")

		s, err := e.Begin(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		// Ly before Lx violates the chain.
		if err := s.Lock(context.Background(), y, model.Exclusive); err == nil {
			t.Fatal("out-of-order Lock accepted")
		}
		if err := s.Unlock(y); err == nil {
			t.Fatal("Unlock before Lock accepted")
		}
		if err := s.Commit(); err == nil {
			t.Fatal("commit of an incomplete session accepted")
		}
		if err := s.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := s.Abort(); err != nil {
			t.Fatal("Abort not idempotent")
		}
	})
}

// TestSessionLockCancellation is the acceptance criterion: a Lock blocked
// on a held entity returns promptly when its context is cancelled, and the
// queued request is withdrawn so the entity is granted to no one stale.
func TestSessionLockCancellation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e, d := sessionFixture(t, StrategyNone, b)
		a := buildChain(d, "A", "Lx Ux")
		bt := buildChain(d, "B", "Lx Ux")
		x := ent(t, d, "x")
		bg := context.Background()

		holder, err := e.Begin(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := holder.Lock(bg, x, model.Exclusive); err != nil {
			t.Fatal(err)
		}

		waiter, err := e.Begin(bt)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(bg)
		errCh := make(chan error, 1)
		go func() { errCh <- waiter.Lock(ctx, x, model.Exclusive) }()
		time.Sleep(10 * time.Millisecond) // let the request queue at the table
		cancel()
		select {
		case err := <-errCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Lock returned %v", err)
			}
		case <-time.After(500 * time.Millisecond):
			t.Fatal("cancelled Lock did not return promptly")
		}
		if got := waiter.Held(); len(got) != 0 {
			t.Fatalf("cancelled waiter holds %v", got)
		}

		// The withdrawn request must not absorb the next grant: a fresh session
		// gets the entity as soon as the holder releases it.
		third, err := e.Begin(buildChain(d, "C", "Lx Ux"))
		if err != nil {
			t.Fatal(err)
		}
		grant := make(chan error, 1)
		go func() { grant <- third.Lock(bg, x, model.Exclusive) }()
		if err := holder.Unlock(x); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-grant:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(500 * time.Millisecond):
			t.Fatal("entity lost after a cancelled request was withdrawn")
		}
		if err := third.Unlock(x); err != nil {
			t.Fatal(err)
		}
		if err := third.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := waiter.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := holder.Unlock(x); err == nil {
			t.Fatal("double unlock accepted")
		}
		if err := holder.Abort(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionCancelGrantRace drives the cancel-vs-grant race: the waiter's
// context fires at the same moment the holder releases. Whatever wins, the
// invariant holds — after Lock returns non-nil the session holds nothing
// and the entity is grantable to others.
func TestSessionCancelGrantRace(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e, d := sessionFixture(t, StrategyNone, b)
		x := ent(t, d, "x")
		bg := context.Background()
		for i := 0; i < 200; i++ {
			holder, _ := e.Begin(buildChain(d, "H", "Lx Ux"))
			if err := holder.Lock(bg, x, model.Exclusive); err != nil {
				t.Fatal(err)
			}
			waiter, _ := e.Begin(buildChain(d, "W", "Lx Ux"))
			ctx, cancel := context.WithCancel(bg)
			got := make(chan error, 1)
			go func() { got <- waiter.Lock(ctx, x, model.Exclusive) }()
			go cancel()
			if err := holder.Unlock(x); err != nil {
				t.Fatal(err)
			}
			err := <-got
			switch {
			case err == nil:
				if err := waiter.Unlock(x); err != nil {
					t.Fatal(err)
				}
				if err := waiter.Commit(); err != nil {
					t.Fatal(err)
				}
			case errors.Is(err, context.Canceled):
				if len(waiter.Held()) != 0 {
					t.Fatalf("iteration %d: cancelled waiter holds a lock", i)
				}
				waiter.Abort()
			default:
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
			// Either way the entity must be free again.
			probe, _ := e.Begin(buildChain(d, "P", "Lx Ux"))
			pctx, pcancel := context.WithTimeout(bg, time.Second)
			if err := probe.Lock(pctx, x, model.Exclusive); err != nil {
				t.Fatalf("iteration %d: entity leaked: %v", i, err)
			}
			pcancel()
			probe.Unlock(x)
			probe.Commit()
			holder.Commit()
		}
	})
}

func TestSessionWoundReturnsErrAborted(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e, d := sessionFixture(t, StrategyWoundWait, b)
		x := ent(t, d, "x")
		bg := context.Background()

		// Explicit instance identities: the holder is younger (higher age
		// priority value) than the requester, so the request wounds it.
		instance := func(name string, id int) *Session {
			s := new(Session)
			e.initInstance(s, buildChain(d, name, "Lx Ux"), id, 0, int64(id))
			return s
		}
		holder := instance("H", 100)
		requester := instance("R", 50)
		if err := holder.Lock(bg, x, model.Exclusive); err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() { got <- requester.Lock(bg, x, model.Exclusive) }()
		// The older requester wounds the younger holder: the holder's next
		// blocking operation (or its Doomed channel) reports the wound.
		select {
		case <-holder.Doomed():
		case <-time.After(2 * time.Second):
			t.Fatal("holder never wounded")
		}
		if err := holder.Abort(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("older requester failed: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("older requester never granted after the wound")
		}
		if err := requester.Unlock(x); err != nil {
			t.Fatal(err)
		}
		if err := requester.Commit(); err != nil {
			t.Fatal(err)
		}
		if c := e.Counters(); c.Wounds == 0 {
			t.Fatalf("counters = %+v, want a wound", c)
		}
	})
}

// TestSessionRetryPreservesIdentity: Retry reopens the same transaction
// instance — same id, same wound-wait age priority, next attempt epoch —
// so a wounded transaction cannot be starved by ever-younger traffic.
func TestSessionRetryPreservesIdentity(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		e, d := sessionFixture(t, StrategyWoundWait, b)
		tmpl := buildChain(d, "A", "Lx Ux")
		s, err := e.Begin(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Retry(s); err == nil {
			t.Fatal("Retry of a session that has not ended accepted")
		}
		if err := s.Abort(); err != nil {
			t.Fatal(err)
		}
		r, err := e.Retry(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID() != s.ID() || r.prio != s.prio || r.key.Epoch != s.key.Epoch+1 {
			t.Fatalf("retry identity = id %d prio %d epoch %d, want id %d prio %d epoch %d",
				r.ID(), r.prio, r.key.Epoch, s.ID(), s.prio, s.key.Epoch+1)
		}
		x := ent(t, d, "x")
		if err := r.Lock(context.Background(), x, model.Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := r.Unlock(x); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSessionAfterEngineClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		d := model.NewDDB()
		d.MustEntity("x", "s1")
		e, err := NewEngine(d, EngineOptions{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		tmpl := buildChain(d, "A", "Lx Ux")
		s, err := e.Begin(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		x, _ := d.Entity("x")
		if err := s.Lock(context.Background(), x, model.Exclusive); !errors.Is(err, ErrClosed) {
			t.Fatalf("Lock on closed engine = %v, want ErrClosed", err)
		}
		if _, err := e.Begin(tmpl); !errors.Is(err, ErrClosed) {
			t.Fatalf("Begin on closed engine = %v, want ErrClosed", err)
		}
	})
}

func TestBeginRejectsForeignTemplate(t *testing.T) {
	e, _ := sessionFixture(t, StrategyNone, BackendDefault)
	other := model.NewDDB()
	other.MustEntity("z", "s9")
	if _, err := e.Begin(buildChain(other, "Z", "Lz Uz")); err == nil {
		t.Fatal("foreign-DDB template accepted")
	}
}

// TestCertifiedSessionHasNoAbortSignal: a StrategyNone session carries no
// abort signal — Doomed is nil and nothing is registered with the engine —
// while a wound-wait session registers one for the length of its life.
func TestCertifiedSessionHasNoAbortSignal(t *testing.T) {
	for _, strat := range []Strategy{StrategyNone, StrategyWoundWait} {
		e, d := sessionFixture(t, strat, BackendDefault)
		x := ent(t, d, "x")
		s, err := e.Begin(buildChain(d, "A", "Lx Ux"))
		if err != nil {
			t.Fatal(err)
		}
		registered := func() int {
			e.mu.Lock()
			defer e.mu.Unlock()
			return len(e.abortChs)
		}
		if err := s.Lock(context.Background(), x, model.Exclusive); err != nil {
			t.Fatal(err)
		}
		certified := strat == StrategyNone
		if (s.Doomed() == nil) != certified || (registered() == 0) != certified {
			t.Fatalf("%v: Doomed nil = %v, %d abort signals registered", strat, s.Doomed() == nil, registered())
		}
		if err := s.Unlock(x); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := registered(); n != 0 {
			t.Fatalf("%v: %d abort signals left after Commit", strat, n)
		}
	}
}

// TestEngineSessionAllocs: on a plain in-process StrategyNone engine — no
// pipelining, wire releases or tracing — a whole Begin…Commit cycle is one
// allocation, the Session itself: it carries no sessionExtra.
func TestEngineSessionAllocs(t *testing.T) {
	e, d := sessionFixture(t, StrategyNone, BackendSharded)
	tmpl := buildChain(d, "A", "Lx Ly Ux Uy")
	x, y := ent(t, d, "x"), ent(t, d, "y")
	bg := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		s, err := e.Begin(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if s.x != nil {
			t.Fatal("plain in-process session carries a sessionExtra")
		}
		for _, id := range []model.EntityID{x, y} {
			if err := s.Lock(bg, id, model.Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []model.EntityID{x, y} {
			if err := s.Unlock(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("engine session cycle = %v allocs, want <= 1", allocs)
	}
}

// TestSessionLargeTemplate: a template of more than 64 nodes keeps its
// executed and held marks in heap words instead of the session's inline
// ones. Held, the partial-order errors and Abort's release wave must read
// exactly as on a small template.
func TestSessionLargeTemplate(t *testing.T) {
	const k = 40 // 80 nodes
	d := model.NewDDB()
	ents := make([]model.EntityID, k)
	var locks, unlocks []string
	for i := range ents {
		name := fmt.Sprintf("e%d", i)
		ents[i] = d.MustEntity(name, fmt.Sprintf("s%d", i%4))
		locks = append(locks, "L"+name)
		unlocks = append(unlocks, "U"+name)
	}
	tmpl := buildChain(d, "BIG", strings.Join(append(locks, unlocks...), " "))
	e, err := NewEngine(d, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ctx := context.Background()
	held := func() int64 { return e.TableMetrics().Snapshot().Held }

	s, err := e.Begin(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ents[:k/2] {
		if err := s.Lock(ctx, id, model.Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Held(); !slices.Equal(got, ents[:k/2]) {
		t.Fatalf("Held mid-run = %v, want %v", got, ents[:k/2])
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{s.Lock(ctx, ents[3], model.Exclusive), "runtime: BIG: Le3 already executed"},
		{s.Unlock(ents[5]), "runtime: BIG: Ue5 violates the class's partial order (unexecuted predecessor)"},
		{s.Lock(ctx, ents[k-1], model.Exclusive), "runtime: BIG: Le39 violates the class's partial order (unexecuted predecessor)"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Fatalf("error = %v, want %q", c.err, c.want)
		}
	}
	if got := held(); got != k/2 {
		t.Fatalf("table holds %d records, want %d", got, k/2)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := held(); got != 0 || len(s.Held()) != 0 {
		t.Fatalf("after Abort: table holds %d records, session %v", got, s.Held())
	}

	// A full run of the same template commits.
	s, err = e.Begin(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ents {
		if err := s.Lock(ctx, id, model.Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ents {
		if err := s.Unlock(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Commits != 1 || c.Aborts != 1 || held() != 0 {
		t.Fatalf("counters = %+v, table holds %d", c, held())
	}
}

// TestBackendResolution: BackendDefault is the sharded table for every
// strategy.
func TestBackendResolution(t *testing.T) {
	for _, strat := range []Strategy{StrategyNone, StrategyWoundWait} {
		e, _ := sessionFixture(t, strat, BackendDefault)
		if got := e.Backend(); got != BackendSharded {
			t.Fatalf("%v default backend = %v, want %v", strat, got, BackendSharded)
		}
	}
}
