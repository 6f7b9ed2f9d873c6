package runtime

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// Certified-chain pipelining over a real wire backend: a loopback netlock
// server hosts the table, the engine runs with a nonzero
// PipelineDepth, and sessions ship lock requests without waiting for
// acks. These tests pin the arming rule, the happy path, and the abort
// path's conservation (in-flight acquires resolved, nothing orphaned).

// pipelineFixture: loopback servers plus a certified engine dialing them
// with pipelining armed — one server behind a netlock client, several
// behind a cluster router.
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
	e := newEngine(t, d, EngineOptions{
		Table:         dialTable(t, d, addrs, netlock.DialOptions{}),
		PipelineDepth: depth,
	})
	return e, d, srvs
}

// TestPipelineArming: the depth knob arms only with an async-capable
// backend — in-process backends silently stay synchronous.
func TestPipelineArming(t *testing.T) {
	e, _, _ := pipelineFixture(t, 4, 1)
	if e.async == nil || e.pipeline != 4 {
		t.Fatalf("remote certified engine with depth 4: async=%v pipeline=%d, want armed",
			e.async != nil, e.pipeline)
	}

	d := model.NewDDB()
	d.MustEntity("x", "s1")
	inproc, err := NewEngine(d, EngineOptions{PipelineDepth: 4})
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
		locktable.Instance{Key: locktable.InstKey{ID: 999}}, y, locktable.Exclusive); err != nil {
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

// releaseAllRecorder wraps an engine's table to record the entities each
// ReleaseAll — Abort's release wave — names.
type releaseAllRecorder struct {
	locktable.Table
	named [][]model.EntityID
}

func (r *releaseAllRecorder) ReleaseAll(ents []model.EntityID, key locktable.InstKey) error {
	r.named = append(r.named, slices.Clone(ents))
	return r.Table.ReleaseAll(ents, key)
}

// TestPipelinedFailedJoinClearsHeld: a join that fails rolls back its
// entity's optimistic hold, so Held stops listing it and Abort's release
// wave does not name it. At depth 1, Lock(z) joins the acquire of y, which
// is parked behind a foreign holder until Lock's context expires.
func TestPipelinedFailedJoinClearsHeld(t *testing.T) {
	e, d, srvs := pipelineFixture(t, 1, 1)
	x, y, z := ent(t, d, "x"), ent(t, d, "y"), ent(t, d, "z")
	rec := &releaseAllRecorder{Table: e.table}
	e.table = rec

	blocker, err := netlock.Dial(srvs[0].Addr(), d, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	foreign := locktable.InstKey{ID: 999}
	if err := blocker.Acquire(ctx, locktable.Instance{Key: foreign}, y, locktable.Exclusive); err != nil {
		t.Fatal(err)
	}

	s, err := e.Begin(buildChain(d, "A", "Lx Ly Lz Ux Uy Uz"))
	if err != nil {
		t.Fatal(err)
	}
	for _, eid := range []model.EntityID{x, y} {
		if err := s.Lock(ctx, eid, model.Exclusive); err != nil {
			t.Fatalf("Lock(%v) = %v", eid, err)
		}
	}
	short, stop := context.WithTimeout(ctx, 50*time.Millisecond)
	defer stop()
	if err := s.Lock(short, z, model.Exclusive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Lock(z) joining the parked acquire of y = %v, want deadline exceeded", err)
	}
	if got, want := s.Held(), []model.EntityID{x, z}; !slices.Equal(got, want) {
		t.Fatalf("Held after the failed join = %v, want %v", got, want)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(rec.named) != 1 || !slices.Equal(rec.named[0], []model.EntityID{x, z}) {
		t.Fatalf("Abort released %v, want one wave naming [x z]", rec.named)
	}
	if err := blocker.Release(y, foreign); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return srvs[0].TableMetrics().Snapshot().Held == 0 })
}

// Receipt-joined releases: on a wire backend a synchronous session's
// Unlock ships the release with an execution receipt and returns; Commit
// joins the receipts. These tests pin when Unlock and Commit return, whose
// Commit a failed release fails, and what a stopped table reports.

// gatedTable is a hosted table whose next Release, once armed, parks on
// gate — holding the server's read loop (which executes releases inline)
// and with it the release's receipt.
type gatedTable struct {
	locktable.Table
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedTable) Release(ent model.EntityID, key locktable.InstKey) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.gate
	}
	return g.Table.Release(ent, key)
}

func (g *gatedTable) open() { g.once.Do(func() { close(g.gate) }) }

// gatedFixture: a synchronous certified engine on loopback servers, the
// first hosting a gatedTable — one server behind a netlock client,
// several behind a cluster router.
func gatedFixture(t *testing.T, servers int) (*Engine, *model.DDB, []*netlock.Server, *gatedTable) {
	t.Helper()
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	gt := &gatedTable{entered: make(chan struct{}), gate: make(chan struct{})}
	var srvs []*netlock.Server
	var addrs []string
	for i := 0; i < servers; i++ {
		opts := netlock.ServerOptions{Lease: time.Minute}
		if i == 0 {
			opts.New = func(d *model.DDB, cfg locktable.Config) locktable.Table {
				gt.Table = locktable.NewSharded(d, cfg)
				return gt
			}
		}
		srv, err := netlock.NewServer(d, locktable.Config{}, opts)
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
	t.Cleanup(gt.open) // before srv.Close: the parked read loop must exit
	e := newEngine(t, d, EngineOptions{Table: dialTable(t, d, addrs, netlock.DialOptions{})})
	return e, d, srvs, gt
}

// lockThenHeldUnlock locks x, arms the gate, and unlocks x: the Unlock
// must return although the server's Release is parked.
func lockThenHeldUnlock(t *testing.T, e *Engine, d *model.DDB, gt *gatedTable) *Session {
	t.Helper()
	x := ent(t, d, "x")
	s, err := e.Begin(buildChain(d, "A", "Lx Ux"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Lock(ctx, x, model.Exclusive); err != nil {
		t.Fatal(err)
	}
	gt.armed.Store(true)
	unlocked := make(chan error, 1)
	go func() { unlocked <- s.Unlock(x) }()
	select {
	case err := <-unlocked:
		if err != nil {
			t.Fatalf("Unlock = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("synchronous Unlock on a wire backend waited for the server's Release")
	}
	select {
	case <-gt.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the release never reached the server")
	}
	return s
}

// TestSyncUnlockReturnsBeforeRelease: Unlock returns while the server's
// Release is held back, and Commit returns only after it runs.
func TestSyncUnlockReturnsBeforeRelease(t *testing.T) {
	e, d, srvs, gt := gatedFixture(t, 1)
	srv := srvs[0]
	s := lockThenHeldUnlock(t, e, d, gt)

	committed := make(chan error, 1)
	go func() { committed <- s.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("Commit returned (%v) while the server still held the release back", err)
	case <-time.After(50 * time.Millisecond):
	}
	gt.open()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("Commit = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit still blocked after the release ran")
	}
	if held := srv.TableMetrics().Snapshot().Held; held != 0 {
		t.Fatalf("server holds %d records after Commit", held)
	}
	if c := e.Counters(); c.Commits != 1 || c.SyncOps != 1 || c.PipelinedOps != 0 {
		t.Fatalf("counters = %+v, want one synchronous commit", c)
	}
}

// TestCommitOnStoppedTableUnderPendingReceipt: the engine stopping while
// a release's receipt is pending makes Commit return ErrClosed — what a
// synchronous Unlock returned on a stopped table before Unlock stopped
// waiting — and the session's Abort is a discard.
func TestCommitOnStoppedTableUnderPendingReceipt(t *testing.T) {
	e, d, _, gt := gatedFixture(t, 1)
	s := lockThenHeldUnlock(t, e, d, gt)

	committed := make(chan error, 1)
	go func() { committed <- s.Commit() }()
	e.Close()
	select {
	case err := <-committed:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Commit on a stopped table = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit still blocked after the engine closed")
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Commits != 0 || c.Aborts != 0 || c.Discarded != 1 {
		t.Fatalf("counters = %+v, want exactly one discard", c)
	}
}

// TestClusterSyncUnlockSkipsOtherPartitionsRelease: on a depth-0 cluster
// engine, Unlock(y) returns while the release of x is held back in the
// other partition's server — cluster releases are not ordered against
// each other — and Commit returns only after that release ran.
func TestClusterSyncUnlockSkipsOtherPartitionsRelease(t *testing.T) {
	e, d, srvs, gt := gatedFixture(t, 2)
	x, y := ent(t, d, "x"), ent(t, d, "y")
	if tab := e.table.(*cluster.Table); tab.Partition(x) != 0 || tab.Partition(y) != 1 {
		t.Fatalf("fixture layout: partitions x=%d y=%d, want 0 and 1", tab.Partition(x), tab.Partition(y))
	}
	s, err := e.Begin(buildChain(d, "A", "Lx Ly Ux Uy"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, eid := range []model.EntityID{x, y} {
		if err := s.Lock(ctx, eid, model.Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	gt.armed.Store(true)
	if err := s.Unlock(x); err != nil {
		t.Fatalf("Unlock(x) = %v", err)
	}
	select {
	case <-gt.entered:
	case <-ctx.Done():
		t.Fatal("the release of x never reached its server")
	}
	unlocked := make(chan error, 1)
	go func() { unlocked <- s.Unlock(y) }()
	select {
	case err := <-unlocked:
		if err != nil {
			t.Fatalf("Unlock(y) = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Unlock(y) waited for the release of x on the other partition")
	}

	committed := make(chan error, 1)
	go func() { committed <- s.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("Commit returned (%v) while the release of x was held back", err)
	case <-time.After(50 * time.Millisecond):
	}
	gt.open()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("Commit = %v", err)
		}
	case <-ctx.Done():
		t.Fatal("Commit still blocked after the release of x ran")
	}
	for i, srv := range srvs {
		if held := srv.TableMetrics().Snapshot().Held; held != 0 {
			t.Fatalf("server %d holds %d records after Commit", i, held)
		}
	}
}

// TestStaleFenceFailsOnlyItsOwnCommit: a release the server rejects for a
// stale fence (the lease lapsed while the session held the lock) fails
// that session's Commit with netlock.ErrStaleFence, and not the Commit of
// a sibling session on the same connection whose release ran before.
func TestStaleFenceFailsOnlyItsOwnCommit(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	x, y := ent(t, d, "x"), ent(t, d, "y")
	srv, err := netlock.NewServer(d, locktable.Config{}, netlock.ServerOptions{Lease: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// The engine's client never heartbeats, so its lease lapses on cue.
	e := newEngine(t, d, EngineOptions{Table: dialTable(t, d, []string{srv.Addr()}, netlock.DialOptions{NoHeartbeat: true})})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// The sibling runs first: its release executes while the lease is live.
	sib, err := e.Begin(buildChain(d, "B", "Ly Uy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sib.Lock(ctx, y, model.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := sib.Unlock(y); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return srv.TableMetrics().Snapshot().Held == 0 })

	s, err := e.Begin(buildChain(d, "A", "Lx Ux"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Lock(ctx, x, model.Exclusive); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return srv.Metrics().LeaseExpiries.Load() >= 1 })
	if err := s.Unlock(x); err != nil {
		t.Fatalf("Unlock = %v, want nil (the release's error belongs to Commit)", err)
	}
	if err := s.Commit(); !errors.Is(err, netlock.ErrStaleFence) {
		t.Fatalf("Commit after a stale-fence release = %v, want ErrStaleFence", err)
	}
	if err := sib.Commit(); err != nil {
		t.Fatalf("sibling Commit = %v, want nil (its release ran under a live lease)", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Commits != 1 || c.Aborts != 1 {
		t.Fatalf("counters = %+v, want one commit and one abort", c)
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPipelinedUnlockDoesNotWaitForOwnAcquire: on a depth-8 engine, Lock(x)
// and Unlock(x) both return at submission although a foreign client holds
// x — the release names "whatever my acquire records" and waits its turn
// server-side — and Commit, which joins the acquire, returns only after
// the foreign holder lets go.
func TestPipelinedUnlockDoesNotWaitForOwnAcquire(t *testing.T) {
	e, d, srvs := pipelineFixture(t, 8, 1)
	x := ent(t, d, "x")
	blocker, err := netlock.Dial(srvs[0].Addr(), d, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := blocker.Acquire(ctx, locktable.Instance{Key: locktable.InstKey{ID: 999}}, x, locktable.Exclusive); err != nil {
		t.Fatal(err)
	}

	s, err := e.Begin(buildChain(d, "A", "Lx Ux"))
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		if err := s.Lock(ctx, x, model.Exclusive); err != nil {
			ran <- err
			return
		}
		ran <- s.Unlock(x)
	}()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Lock/Unlock = %v", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("pipelined Lock(x); Unlock(x) waited for the foreign holder of x")
	}

	committed := make(chan error, 1)
	go func() { committed <- s.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("Commit returned (%v) before x was ever granted", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := blocker.Release(x, locktable.InstKey{ID: 999}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("Commit = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit still blocked after the foreign holder released x")
	}
	// The release ran right behind the grant: x is free and nobody holds it.
	waitUntil(t, func() bool { return srvs[0].TableMetrics().Snapshot().Held == 0 })
	if err := blocker.Acquire(ctx, locktable.Instance{Key: locktable.InstKey{ID: 1000}}, x, locktable.Exclusive); err != nil {
		t.Fatalf("x not grantable after Commit: %v", err)
	}
	if c := e.Counters(); c.Commits != 1 || c.PipelinedOps != 1 {
		t.Fatalf("counters = %+v, want one pipelined commit", c)
	}
}
