package runtime

import (
	"context"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// Certified-chain pipelining over a real wire backend: a loopback netlock
// server hosts the table, the engine runs StrategyNone with a nonzero
// PipelineDepth, and sessions ship lock requests without waiting for
// acks. These tests pin the arming rule, the happy path, and the abort
// path's conservation (in-flight acquires resolved, nothing orphaned).

// pipelineFixture: a loopback server plus a certified engine dialing it
// with pipelining armed.
func pipelineFixture(t *testing.T, depth int) (*Engine, *model.DDB, *netlock.Server) {
	t.Helper()
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s1")
	srv, err := netlock.NewServer(d, locktable.Config{}, netlock.ServerOptions{
		Lease: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	e, err := NewEngine(d, EngineOptions{
		Strategy:      StrategyNone,
		Backend:       BackendRemote,
		RemoteAddr:    srv.Addr(),
		PipelineDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d, srv
}

// TestPipelineArming: the depth knob arms only on the certified strategy
// with an async-capable backend — in-process backends and the wound-wait
// tier silently stay synchronous.
func TestPipelineArming(t *testing.T) {
	e, _, _ := pipelineFixture(t, 4)
	if e.async == nil || e.pipeline != 4 {
		t.Fatalf("remote certified engine with depth 4: async=%v pipeline=%d, want armed",
			e.async != nil, e.pipeline)
	}

	d := model.NewDDB()
	d.MustEntity("x", "s1")
	inproc, err := NewEngine(d, EngineOptions{Strategy: StrategyNone, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	if inproc.async != nil {
		t.Fatal("pipelining armed on an in-process backend")
	}
}

// TestPipelinedSessionHappyPath: a session drives its template with every
// Lock returning before the ack; Unlock and Commit join what they must,
// and the run commits with the table left empty.
func TestPipelinedSessionHappyPath(t *testing.T) {
	e, d, _ := pipelineFixture(t, 8)
	tmpl := buildChain(d, "A", "Lx Ly Lz Ux Uy Uz")
	x, y, z := ent(t, d, "x"), ent(t, d, "y"), ent(t, d, "z")

	for round := 0; round < 20; round++ {
		s, err := e.Begin(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, eid := range []model.EntityID{x, y, z} {
			if err := s.Lock(ctx, eid, model.Exclusive); err != nil {
				t.Fatalf("round %d: Lock(%v) = %v", round, eid, err)
			}
		}
		for _, eid := range []model.EntityID{x, y, z} {
			if err := s.Unlock(eid); err != nil {
				t.Fatalf("round %d: Unlock(%v) = %v", round, eid, err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("round %d: Commit = %v", round, err)
		}
	}
	if c := e.Counters(); c.Commits != 20 || c.Aborts != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestPipelinedAbortConservation: aborting a session with acquires still
// in flight (one parked behind a foreign holder) withdraws or releases
// every one of them — after the blocker clears, a fresh session takes all
// entities immediately, proving no grant was orphaned.
func TestPipelinedAbortConservation(t *testing.T) {
	e, d, srv := pipelineFixture(t, 8)
	tmpl := buildChain(d, "A", "Lx Ly Lz Ux Uy Uz")
	x, y, z := ent(t, d, "x"), ent(t, d, "y"), ent(t, d, "z")

	// A foreign client holds y, so the session's pipelined chain wedges
	// mid-flight: x granted, y parked, z queued behind it server-side.
	blocker, err := netlock.Dial(srv.Addr(), d, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer bcancel()
	if err := blocker.Acquire(bctx,
		locktable.Instance{Key: locktable.InstKey{ID: 999}, Prio: 999}, y, locktable.Exclusive); err != nil {
		t.Fatal(err)
	}

	s, err := e.Begin(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// All three Locks return immediately (depth 8 > 3); y and z cannot
	// have been granted.
	for _, eid := range []model.EntityID{x, y, z} {
		if err := s.Lock(ctx, eid, model.Exclusive); err != nil {
			t.Fatalf("pipelined Lock(%v) = %v", eid, err)
		}
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := blocker.Release(y, locktable.InstKey{ID: 999}); err != nil {
		t.Fatal(err)
	}
	// Conservation: every entity is free again.
	probe, err := e.Begin(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer pcancel()
	for _, eid := range []model.EntityID{x, y, z} {
		if err := probe.Lock(pctx, eid, model.Exclusive); err != nil {
			t.Fatalf("probe Lock(%v) after abort = %v", eid, err)
		}
	}
	if err := probe.Abort(); err != nil {
		t.Fatal(err)
	}
}
