package runtime

import (
	"context"
	"testing"
	"time"

	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// Certified-chain pipelining over a real wire backend: a loopback netlock
// server hosts the table, the engine runs StrategyNone with a nonzero
// PipelineDepth, and sessions ship lock requests without waiting for
// acks. These tests pin the arming rule, the happy path, and the abort
// path's conservation (in-flight acquires resolved, nothing orphaned).

// pipelineFixture: loopback servers plus a certified engine dialing them
// with pipelining armed — one server behind BackendRemote, several behind
// BackendCluster.
func pipelineFixture(t *testing.T, depth, servers int) (*Engine, *model.DDB, []*netlock.Server) {
	t.Helper()
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s1")
	var srvs []*netlock.Server
	var addrs []string
	for i := 0; i < servers; i++ {
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
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
	}
	opts := EngineOptions{
		Strategy:      StrategyNone,
		Backend:       BackendRemote,
		RemoteAddr:    addrs[0],
		PipelineDepth: depth,
	}
	if servers > 1 {
		opts.Backend, opts.RemoteAddrs = BackendCluster, addrs
	}
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d, srvs
}

// TestPipelineArming: the depth knob arms only on the certified strategy
// with an async-capable backend — in-process backends and the wound-wait
// tier silently stay synchronous.
func TestPipelineArming(t *testing.T) {
	e, _, _ := pipelineFixture(t, 4, 1)
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
	e, d, _ := pipelineFixture(t, 8, 1)
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
// in flight (one parked behind a foreign holder, one queued behind that)
// returns promptly WHILE the foreign holder is still in place — Abort may
// not depend on anyone else's progress — and withdraws or releases every
// one of them: after the blocker clears, a fresh session takes, releases
// and commits all entities, and the server ends up holding nothing.
func TestPipelinedAbortConservation(t *testing.T) {
	e, d, srvs := pipelineFixture(t, 8, 1)
	// The chain wedges mid-flight: x granted, y parked behind the foreign
	// holder, z queued behind y server-side.
	pipelinedAbortConservation(t, e, d, srvs, srvs[0], "x", "y", "z")
}

// TestPipelinedAbortConservationCluster is the 2-server twin. The blocked
// entity comes LAST in the chain, after two entities of the other
// partition: the partition fence makes Lock itself join the previous
// partition's acquires on a switch, so with the netlock test's x-y-z shape
// the session would (legitimately) block in Lock, not in Abort.
func TestPipelinedAbortConservationCluster(t *testing.T) {
	e, d, srvs := pipelineFixture(t, 8, 2)
	tab := e.table.(*cluster.Table)
	px, py, pz := tab.Partition(ent(t, d, "x")), tab.Partition(ent(t, d, "y")), tab.Partition(ent(t, d, "z"))
	if px != pz || px == py {
		t.Fatalf("fixture layout: partitions x=%d y=%d z=%d, want x,z together and y apart", px, py, pz)
	}
	pipelinedAbortConservation(t, e, d, srvs, srvs[py], "x", "z", "y")
}

// pipelinedAbortConservation: a foreign client on ySrv holds y; a session
// pipelines Locks on the three entities in the given chain order and
// aborts.
func pipelinedAbortConservation(t *testing.T, e *Engine, d *model.DDB, srvs []*netlock.Server, ySrv *netlock.Server, order ...string) {
	spec := ""
	var ents []model.EntityID
	for _, name := range order {
		spec += "L" + name + " "
		ents = append(ents, ent(t, d, name))
	}
	for _, name := range order {
		spec += "U" + name + " "
	}
	tmpl := buildChain(d, "A", spec)
	y := ent(t, d, "y")

	blocker, err := netlock.Dial(ySrv.Addr(), d, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := blocker.Acquire(ctx,
		locktable.Instance{Key: locktable.InstKey{ID: 999}, Prio: 999}, y, locktable.Exclusive); err != nil {
		t.Fatal(err)
	}

	s, err := e.Begin(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	// All three Locks return at submission (depth 8 > 3); y cannot have
	// been granted, nor anything chained behind it.
	for _, eid := range ents {
		if err := s.Lock(ctx, eid, model.Exclusive); err != nil {
			t.Fatalf("pipelined Lock(%v) = %v", eid, err)
		}
	}
	aborted := make(chan error, 1)
	go func() { aborted <- s.Abort() }()
	select {
	case err := <-aborted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Abort still blocked after 1s with the foreign holder of y in place")
	}

	if err := blocker.Release(y, locktable.InstKey{ID: 999}); err != nil {
		t.Fatal(err)
	}
	// Conservation: every entity is free again. The probe's Locks are
	// pipelined too, so only its Commit — which joins them and surfaces
	// the fire-and-forget releases' errors — proves they were granted.
	probe, err := e.Begin(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for _, eid := range ents {
		if err := probe.Lock(ctx, eid, model.Exclusive); err != nil {
			t.Fatalf("probe Lock(%v) after abort = %v", eid, err)
		}
	}
	for _, eid := range ents {
		if err := probe.Unlock(eid); err != nil {
			t.Fatalf("probe Unlock(%v) = %v", eid, err)
		}
	}
	if err := probe.Commit(); err != nil {
		t.Fatalf("probe Commit = %v", err)
	}
	// Pipelined releases are fire-and-forget, so the servers' books settle
	// shortly after Commit rather than before it.
	held := func() (n int64) {
		for _, srv := range srvs {
			n += srv.TableMetrics().Snapshot().Held
		}
		return n
	}
	deadline := time.Now().Add(2 * time.Second)
	for held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("servers still hold %d lock records after abort + probe commit", held())
		}
		time.Sleep(time.Millisecond)
	}
}
