package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
)

// newTable builds a lock table over a database for a test engine.
type newTable func(*model.DDB) locktable.Table

// newShardedTable is the in-process table with the default configuration.
func newShardedTable(d *model.DDB) locktable.Table {
	return locktable.NewSharded(d, locktable.Config{})
}

// backends are the lock tables every session-semantics test runs
// against, by name: the contract ("bit-for-bit" blocking semantics) is
// part of the Table interface, so the suite is table-driven over it.
var backends = []struct {
	name  string
	table newTable
}{{"sharded", newShardedTable}}

// forEachBackend runs the test once per lock table.
func forEachBackend(t *testing.T, f func(t *testing.T, table newTable)) {
	t.Helper()
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { f(t, b.table) })
	}
}

// sessionFixture builds a two-entity database and an engine over it.
func sessionFixture(t *testing.T, table newTable) (*Engine, *model.DDB) {
	t.Helper()
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	e, err := NewEngine(d, EngineOptions{Table: table(d)})
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
	forEachBackend(t, func(t *testing.T, table newTable) {
		e, d := sessionFixture(t, table)
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
	forEachBackend(t, func(t *testing.T, table newTable) {
		e, d := sessionFixture(t, table)
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
	forEachBackend(t, func(t *testing.T, table newTable) {
		e, d := sessionFixture(t, table)
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
	forEachBackend(t, func(t *testing.T, table newTable) {
		e, d := sessionFixture(t, table)
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

func TestSessionAfterEngineClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, table newTable) {
		d := model.NewDDB()
		d.MustEntity("x", "s1")
		e, err := NewEngine(d, EngineOptions{Table: table(d)})
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
	e, _ := sessionFixture(t, newShardedTable)
	other := model.NewDDB()
	other.MustEntity("z", "s9")
	if _, err := e.Begin(buildChain(other, "Z", "Lz Uz")); err == nil {
		t.Fatal("foreign-DDB template accepted")
	}
}

// TestEngineSessionAllocs: on a plain in-process StrategyNone engine — no
// pipelining, wire releases or tracing — a whole Begin…Commit cycle is one
// allocation, the Session itself: it carries no sessionExtra.
func TestEngineSessionAllocs(t *testing.T) {
	e, d := sessionFixture(t, newShardedTable)
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
	tab, metrics := meteredSharded(d, 0)
	e := newEngine(t, d, EngineOptions{Table: tab})
	ctx := context.Background()
	held := func() int64 { return metrics.Snapshot().Held }

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

// TestBackendResolution: an engine with no table runs on a fresh sharded
// one, whatever the ignored Backend field says: two-phase sessions begin,
// and releases take the synchronous in-process path.
func TestBackendResolution(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	for _, b := range []Backend{BackendDefault, BackendSharded} {
		e := newEngine(t, d, EngineOptions{Backend: b})
		if e.table == nil || e.releaseAsync != nil {
			t.Fatalf("Backend %d: engine without a table is not on the sharded table", b)
		}
		if err := e.BeginAt(new(Session), buildChain(d, "F", "Lx Ux"), true); err != nil {
			t.Fatalf("Backend %d: two-phase Begin: %v", b, err)
		}
	}
}

// TestTwoPhaseNeverWaitsHolding: a two-phase session's first Lock takes
// the class's whole entity set, and when it misses an entity another
// session holds it gives back what it already got before it parks: while
// it waits, the table holds only the other session's lock. Once that is
// released the session holds its whole set, and its later Lock touches no
// table.
func TestTwoPhaseNeverWaitsHolding(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	tab, metrics := meteredSharded(d, 0)
	e := newEngine(t, d, EngineOptions{Table: tab})
	x, z := ent(t, d, "x"), ent(t, d, "z")
	bg := context.Background()
	held := func() int64 { return metrics.Snapshot().Held }

	holder, err := e.Begin(buildChain(d, "H", "Lz Uz"))
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock(bg, z, model.Exclusive); err != nil {
		t.Fatal(err)
	}
	s := new(Session)
	if err := e.BeginAt(s, buildChain(d, "F", "Lx Ux Lz Uz"), true); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- s.Lock(bg, x, model.Exclusive) }()
	waitUntil(t, func() bool { return metrics.Waiting.Load() == 1 })
	if n := held(); n != 1 {
		t.Fatalf("table holds %d locks while the two-phase session waits, want only the holder's 1", n)
	}
	if err := holder.Unlock(z); err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if h := s.Held(); !slices.Equal(h, []model.EntityID{x, z}) || held() != 2 {
		t.Fatalf("after its first Lock the session holds %v (table %d), want [x z]", h, held())
	}
	if err := s.Unlock(x); err != nil {
		t.Fatal(err)
	}
	grants := metrics.Snapshot().Grants
	if err := s.Lock(bg, z, model.Exclusive); err != nil {
		t.Fatal(err)
	}
	if g := metrics.Snapshot().Grants; g != grants {
		t.Fatalf("a later Lock of a two-phase session reached the table (%d grants, want %d)", g, grants)
	}
	if err := s.Unlock(z); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Commits != 2 || c.Aborts != 0 || held() != 0 {
		t.Fatalf("counters = %+v, table holds %d", c, held())
	}
}
