package cluster_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/workload"
)

// startCluster brings up n loopback dlservers over one generated database
// and a cluster table routing across them. Callers own srvs (kill one to
// stage a partition loss); cleanup closes everything in either order.
// Server i hosts the table hosts[i] builds, if given (else the default).
func startCluster(t *testing.T, n int, cfg locktable.Config, hosts ...func(*model.DDB, locktable.Config) locktable.Table) (*cluster.Table, []*netlock.Server, *model.DDB) {
	t.Helper()
	ddb := workload.NewDDB(workload.Config{Sites: 3, EntitiesPerSite: 8})
	var srvs []*netlock.Server
	var addrs []string
	for i := 0; i < n; i++ {
		opts := netlock.ServerOptions{Lease: 10 * time.Second}
		if i < len(hosts) {
			opts.New = hosts[i]
		}
		srv, err := netlock.NewServer(ddb, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
	}
	tab, err := cluster.New(ddb, cfg, addrs, cluster.Options{
		Dial: netlock.DialOptions{HeartbeatEvery: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tab.Close)
	return tab, srvs, ddb
}

// entOn returns an entity owned by partition p.
func entOn(t *testing.T, tab *cluster.Table, ddb *model.DDB, p int) model.EntityID {
	t.Helper()
	for i := 0; i < ddb.NumEntities(); i++ {
		if ent := model.EntityID(i); tab.Partition(ent) == p {
			return ent
		}
	}
	t.Fatalf("no entity routed to partition %d", p)
	return 0
}

func inst(id int) locktable.Instance {
	return locktable.Instance{Key: locktable.InstKey{ID: id}}
}

// TestClusterRoutingCoversPartitions pins that the routing hash actually
// spreads a small entity space over every server — the property all the
// multi-partition tests below lean on.
func TestClusterRoutingCoversPartitions(t *testing.T) {
	tab, _, ddb := startCluster(t, 3, locktable.Config{})
	counts := make([]int, tab.Partitions())
	for i := 0; i < ddb.NumEntities(); i++ {
		p := tab.Partition(model.EntityID(i))
		if p < 0 || p >= len(counts) {
			t.Fatalf("entity %d routed to partition %d of %d", i, p, len(counts))
		}
		counts[p]++
	}
	for p, n := range counts {
		if n == 0 {
			t.Fatalf("partition %d owns no entities (counts %v)", p, counts)
		}
	}
}

// TestClusterEnginesReuseInstanceIDs: a second engine (its own cluster
// table over the same servers) numbers its sessions from 1 too. Its
// session 1 must be a distinct holder on every partition: while ours
// holds an entity, the foreigner's exclusive acquire waits, and it is
// granted once ours releases.
func TestClusterEnginesReuseInstanceIDs(t *testing.T) {
	tab, srvs, ddb := startCluster(t, 2, locktable.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var addrs []string
	for _, s := range srvs {
		addrs = append(addrs, s.Addr())
	}
	foreign, err := cluster.New(ddb, locktable.Config{}, addrs, cluster.Options{
		Dial: netlock.DialOptions{HeartbeatEvery: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()

	for p := 0; p < 2; p++ {
		ent := entOn(t, tab, ddb, p)
		if err := tab.Acquire(ctx, inst(1), ent, locktable.Exclusive); err != nil {
			t.Fatal(err)
		}
		short, stop := context.WithTimeout(ctx, 50*time.Millisecond)
		err := foreign.Acquire(short, inst(1), ent, locktable.Exclusive)
		stop()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("partition %d: the foreign session 1 was granted our session 1's lock (%v)", p, err)
		}
		if err := tab.Release(ent, inst(1).Key); err != nil {
			t.Fatal(err)
		}
		if err := foreign.Acquire(ctx, inst(1), ent, locktable.Exclusive); err != nil {
			t.Fatalf("partition %d: foreign acquire after our release: %v", p, err)
		}
		if err := foreign.Release(ent, inst(1).Key); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterReleaseAllPartialFailure: with one partition dead,
// ReleaseAll must still release the live partition's entities and report
// the dead slice as a lease expiry in the joined error.
func TestClusterReleaseAllPartialFailure(t *testing.T) {
	tab, srvs, ddb := startCluster(t, 2, locktable.Config{})
	ea, eb := entOn(t, tab, ddb, 0), entOn(t, tab, ddb, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	holder := inst(1)
	for _, ent := range []model.EntityID{ea, eb} {
		if err := tab.Acquire(ctx, holder, ent, locktable.Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	srvs[0].Close() // partition 0 lost; ea's grant is revoked server-side
	time.Sleep(50 * time.Millisecond)

	err := tab.ReleaseAll([]model.EntityID{ea, eb}, holder.Key)
	if err == nil {
		t.Fatal("ReleaseAll with a dead partition reported full success")
	}
	if !errors.Is(err, netlock.ErrLeaseExpired) {
		t.Fatalf("ReleaseAll error %v; want a joined ErrLeaseExpired for the dead slice", err)
	}
	// The live partition must have actually released: a new session gets
	// the lock promptly.
	if err := tab.Acquire(ctx, inst(2), eb, locktable.Exclusive); err != nil {
		t.Fatalf("live partition did not release: %v", err)
	}
	if err := tab.Release(eb, locktable.InstKey{ID: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPartitionLoss kills one of three servers mid-workload:
// the other partitions must keep granting, mutual exclusion must hold
// throughout, and sessions touching the dead slice must surface
// ErrLeaseExpired — graceful degradation, not a hang and not a feigned
// total shutdown.
func TestClusterPartitionLoss(t *testing.T) {
	tab, srvs, ddb := startCluster(t, 3, locktable.Config{})
	const deadPart = 1

	numEnts := ddb.NumEntities()
	occ := make([]atomic.Int32, numEnts)
	var killed atomic.Bool
	var stop atomic.Bool
	var liveGrantsAfterKill, expiredSeen atomic.Int64

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := inst(w + 1)
			for i := w; !stop.Load(); i++ {
				ent := model.EntityID(i % numEnts)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := tab.Acquire(ctx, in, ent, locktable.Exclusive)
				cancel()
				switch {
				case err == nil:
					if !occ[ent].CompareAndSwap(0, 1) {
						t.Errorf("mutual exclusion violated on entity %d", ent)
					}
					occ[ent].Store(0)
					if rerr := tab.Release(ent, in.Key); rerr != nil && !errors.Is(rerr, netlock.ErrLeaseExpired) {
						t.Errorf("release entity %d: %v", ent, rerr)
					}
					if killed.Load() && tab.Partition(ent) != deadPart {
						liveGrantsAfterKill.Add(1)
					}
				case errors.Is(err, netlock.ErrLeaseExpired):
					expiredSeen.Add(1)
					if tab.Partition(ent) != deadPart {
						t.Errorf("live partition %d surfaced lease expiry on entity %d", tab.Partition(ent), ent)
					}
				default:
					t.Errorf("entity %d (partition %d): %v", ent, tab.Partition(ent), err)
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	killed.Store(true)
	srvs[deadPart].Close()
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := liveGrantsAfterKill.Load(); n == 0 {
		t.Error("no grants on surviving partitions after the kill")
	}
	if n := expiredSeen.Load(); n == 0 {
		t.Error("no session surfaced ErrLeaseExpired for the dead partition")
	}

	// Steady state after the storm: the dead slice stays expired, the
	// survivors still grant.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	deadEnt := entOn(t, tab, ddb, deadPart)
	if err := tab.Acquire(ctx, inst(99), deadEnt, locktable.Exclusive); !errors.Is(err, netlock.ErrLeaseExpired) {
		t.Fatalf("acquire on dead partition: %v; want ErrLeaseExpired", err)
	}
	for _, p := range []int{0, 2} {
		ent := entOn(t, tab, ddb, p)
		if err := tab.Acquire(ctx, inst(99), ent, locktable.Exclusive); err != nil {
			t.Fatalf("surviving partition %d stopped granting: %v", p, err)
		}
		if err := tab.Release(ent, locktable.InstKey{ID: 99}); err != nil {
			t.Fatal(err)
		}
	}

	// The per-partition expiry counters attribute the failure exactly:
	// the dead partition absorbed every lease expiry the workload saw,
	// the survivors none — the direct form of what the error-path checks
	// above only infer.
	if n := tab.PartitionExpiries(deadPart); n == 0 {
		t.Error("dead partition's expiry counter is zero despite surfaced lease expiries")
	}
	for _, p := range []int{0, 2} {
		if n := tab.PartitionExpiries(p); n != 0 {
			t.Errorf("surviving partition %d counted %d lease expiries, want 0", p, n)
		}
	}
}

// TestClusterAsyncFencesPartitionSwitch pins the partition fence's core
// guarantee: an instance's acquire on partition 1 must not execute while
// its earlier acquire on partition 0 is still queued. Instance 9 holds
// e0; instance 1 submits e0 (parks behind 9) and then e1 — the
// AcquireAsync(e1) call itself must block in the fence join, so e1 stays
// free for a third instance until 9 releases. Unfenced, e1 would be
// granted to 1 immediately: exactly the out-of-program-order state that
// deadlocked certified mixes.
func TestClusterAsyncFencesPartitionSwitch(t *testing.T) {
	tab, _, ddb := startCluster(t, 2, locktable.Config{})
	e0 := entOn(t, tab, ddb, 0)
	e1 := entOn(t, tab, ddb, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := tab.Acquire(ctx, inst(9), e0, locktable.Exclusive); err != nil {
		t.Fatal(err)
	}

	submitted2nd := make(chan locktable.Completion, 2)
	go func() { // instance 1's session goroutine
		submitted2nd <- tab.AcquireAsync(inst(1), e0, locktable.Exclusive)
		submitted2nd <- tab.AcquireAsync(inst(1), e1, locktable.Exclusive)
	}()

	c0 := <-submitted2nd
	select {
	case <-submitted2nd:
		t.Fatal("AcquireAsync(e1) returned while the instance's e0 acquire was still queued: partition switch not fenced")
	case <-time.After(200 * time.Millisecond):
	}
	// e1 must still be grantable to someone else.
	if err := tab.Acquire(ctx, inst(3), e1, locktable.Exclusive); err != nil {
		t.Fatalf("e1 should be free while instance 1 is fenced: %v", err)
	}
	if err := tab.Release(e1, locktable.InstKey{ID: 3}); err != nil {
		t.Fatal(err)
	}

	if err := tab.Release(e0, locktable.InstKey{ID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c0.Wait(ctx); err != nil {
		t.Fatalf("instance 1's e0 acquire: %v", err)
	}
	var c1 locktable.Completion
	select {
	case c1 = <-submitted2nd:
	case <-ctx.Done():
		t.Fatal("AcquireAsync(e1) never unblocked after the fence cleared")
	}
	if err := c1.Wait(ctx); err != nil {
		t.Fatalf("instance 1's e1 acquire: %v", err)
	}
	if err := tab.ReleaseAll([]model.EntityID{e0, e1}, locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPipelinedChainsNoCrossPartitionDeadlock is the regression
// for the observed cluster-pipelining deadlock: many instances drive the
// same certified-style ordered chain — acquire a@p0 then b@p1 submitted
// back-to-back WITHOUT joining in between, exactly as a depth-K
// pipelined session does — and the run must drain. Before the partition
// fence, two chains would routinely each hold its second entity while
// parked on the other's first (b granted while a still queued), a state
// unreachable synchronously, and the mix wedged with no deadlock
// handling armed.
func TestClusterPipelinedChainsNoCrossPartitionDeadlock(t *testing.T) {
	tab, _, ddb := startCluster(t, 2, locktable.Config{})
	a := entOn(t, tab, ddb, 0)
	b := entOn(t, tab, ddb, 1)

	const (
		workers = 8
		iters   = 50
	)
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(id int) { // one session goroutine per instance
			key := locktable.InstKey{ID: 100 + id}
			in := locktable.Instance{Key: key}
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				ca := tab.AcquireAsync(in, a, locktable.Exclusive)
				cb := tab.AcquireAsync(in, b, locktable.Exclusive) // fences on ca internally
				if err := ca.Wait(ctx); err != nil {
					done <- err
					return
				}
				if err := cb.Wait(ctx); err != nil {
					done <- err
					return
				}
				ra := tab.ReleaseAsync(a, key)
				rb := tab.ReleaseAsync(b, key)
				if err := ra.Wait(ctx); err != nil {
					done <- err
					return
				}
				if err := rb.Wait(ctx); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	timeout := time.After(60 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("pipelined chains wedged: cross-partition program order not restored by the fence")
		}
	}
}

// gatedTable is a hosted table whose next Release, once armed, parks on
// gate — holding the server's read loop, which executes releases inline.
type gatedTable struct {
	locktable.Table
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func newGatedTable() *gatedTable {
	return &gatedTable{entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedTable) Release(ent model.EntityID, key locktable.InstKey) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.gate
	}
	return g.Table.Release(ent, key)
}

func (g *gatedTable) open() { g.once.Do(func() { close(g.gate) }) }

// host hands a server g, backed by the default sharded table.
func (g *gatedTable) host(d *model.DDB, cfg locktable.Config) locktable.Table {
	g.Table = locktable.NewSharded(d, cfg)
	return g
}

// TestClusterReleaseDoesNotWaitForOtherPartitionsRelease: releases are not
// ordered against each other. With partition 0's server parked inside
// the release of e0, the instance's release of e1 on partition 1 returns
// at once, and e1 is free for a third instance before e0's release runs.
func TestClusterReleaseDoesNotWaitForOtherPartitionsRelease(t *testing.T) {
	g := newGatedTable()
	tab, _, ddb := startCluster(t, 2, locktable.Config{}, g.host)
	t.Cleanup(g.open) // runs before the servers close: the parked read loop must exit
	e0, e1 := entOn(t, tab, ddb, 0), entOn(t, tab, ddb, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	key := locktable.InstKey{ID: 1}
	for _, c := range []locktable.Completion{tab.AcquireAsync(inst(1), e0, locktable.Exclusive), tab.AcquireAsync(inst(1), e1, locktable.Exclusive)} {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	g.armed.Store(true)
	r0 := tab.ReleaseAsync(e0, key)
	select {
	case <-g.entered:
	case <-ctx.Done():
		t.Fatal("the release of e0 never reached partition 0's table")
	}
	released := make(chan locktable.Completion, 1)
	go func() { released <- tab.ReleaseAsync(e1, key) }()
	var r1 locktable.Completion
	select {
	case r1 = <-released:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("ReleaseAsync(e1) waited for the instance's release on another partition")
	}
	if err := tab.Acquire(ctx, inst(3), e1, locktable.Exclusive); err != nil {
		t.Fatalf("e1 not grantable while e0's release is held back: %v", err)
	}
	if err := tab.Release(e1, locktable.InstKey{ID: 3}); err != nil {
		t.Fatal(err)
	}
	g.open()
	for _, r := range []locktable.Completion{r0, r1} {
		if err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterReleaseFencesOtherPartitionsAcquire pins R2: a release waits
// for the instance's unacked acquires on other partitions. Instance 1
// holds e1 and has an acquire of e0 parked behind holder 9; its release
// of e1 must not run — e1 stays held — until e0 is granted.
func TestClusterReleaseFencesOtherPartitionsAcquire(t *testing.T) {
	tab, _, ddb := startCluster(t, 2, locktable.Config{})
	e0, e1 := entOn(t, tab, ddb, 0), entOn(t, tab, ddb, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := tab.Acquire(ctx, inst(9), e0, locktable.Exclusive); err != nil {
		t.Fatal(err)
	}
	key := locktable.InstKey{ID: 1}
	if err := tab.AcquireAsync(inst(1), e1, locktable.Exclusive).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	c0 := tab.AcquireAsync(inst(1), e0, locktable.Exclusive) // parks behind 9
	released := make(chan locktable.Completion, 1)
	go func() { released <- tab.ReleaseAsync(e1, key) }()
	select {
	case <-released:
		t.Fatal("ReleaseAsync(e1) returned while the instance's earlier acquire of e0 was still queued")
	case <-time.After(200 * time.Millisecond):
	}
	probe, probeCancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err := tab.Acquire(probe, inst(3), e1, locktable.Exclusive)
	probeCancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe acquire of e1 = %v; want it still held by instance 1", err)
	}

	if err := tab.Release(e0, locktable.InstKey{ID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c0.Wait(ctx); err != nil {
		t.Fatalf("instance 1's e0 acquire: %v", err)
	}
	select {
	case r1 := <-released:
		if err := r1.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatal("ReleaseAsync(e1) never unblocked after e0 was granted")
	}
	if err := tab.Acquire(ctx, inst(3), e1, locktable.Exclusive); err != nil {
		t.Fatalf("e1 not released: %v", err)
	}
	if err := tab.ReleaseAll([]model.EntityID{e0}, key); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFenceJoinsCountAcquiresOnly: the chain L e0, L e1, U e0, U e1
// joins twice — L e1 behind L e0 (R1), U e0 behind L e1 (R2) — and U e1
// joins nothing: releases are never fenced on releases.
func TestClusterFenceJoinsCountAcquiresOnly(t *testing.T) {
	tab, _, ddb := startCluster(t, 2, locktable.Config{})
	e0, e1 := entOn(t, tab, ddb, 0), entOn(t, tab, ddb, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	key := locktable.InstKey{ID: 1}
	comps := []locktable.Completion{
		tab.AcquireAsync(inst(1), e0, locktable.Exclusive),
		tab.AcquireAsync(inst(1), e1, locktable.Exclusive),
		tab.ReleaseAsync(e0, key),
		tab.ReleaseAsync(e1, key),
	}
	for _, c := range comps {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := tab.FenceJoins(); n != 2 {
		t.Fatalf("FenceJoins = %d, want 2", n)
	}
}

// TestClusterFenceJoinOrders pins the two orders in which a partition
// fence and the session may join one acquire. The fence joins the
// partition client's own record, so each order must hand every party the
// acquire's one outcome, and only while the record is still that
// acquire's.
func TestClusterFenceJoinOrders(t *testing.T) {
	// Fence first: partition 1 dies under an in-flight acquire. The
	// instance's next acquire, on partition 0, joins it and fails, and the
	// session's own Wait then replays the same lease expiry, counted once.
	t.Run("fence-first", func(t *testing.T) {
		tab, srvs, ddb := startCluster(t, 2, locktable.Config{})
		e0, e1 := entOn(t, tab, ddb, 0), entOn(t, tab, ddb, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()

		if err := tab.Acquire(ctx, inst(9), e1, locktable.Exclusive); err != nil {
			t.Fatal(err)
		}
		c1 := tab.AcquireAsync(inst(1), e1, locktable.Exclusive) // parks behind 9
		srvs[1].Close()
		before := tab.PartitionExpiries(1)
		if err := tab.AcquireAsync(inst(1), e0, locktable.Exclusive).Wait(ctx); !errors.Is(err, netlock.ErrLeaseExpired) {
			t.Fatalf("acquire behind the lost partition's = %v, want ErrLeaseExpired from the fence join", err)
		}
		if err := c1.Wait(ctx); !errors.Is(err, netlock.ErrLeaseExpired) {
			t.Fatalf("session's wait after the fence join = %v, want the joined ErrLeaseExpired", err)
		}
		if n := tab.PartitionExpiries(1) - before; n != 1 {
			t.Fatalf("partition 1 counted %d lease expiries for one failed acquire, want 1", n)
		}
		// The failed join stopped the chain: e0 was never requested.
		if err := tab.Acquire(ctx, inst(3), e0, locktable.Exclusive); err != nil {
			t.Fatalf("e0 after the fenced-off acquire: %v", err)
		}
	})

	// Session first: the session waited its partition-0 acquire, and the
	// record went back to the pool. Another instance's acquire draws it and
	// parks behind a holder. The first instance's acquire on partition 1
	// must not join that record: it returns at once.
	t.Run("session-first", func(t *testing.T) {
		tab, _, ddb := startCluster(t, 2, locktable.Config{})
		var on0 []model.EntityID
		for i := 0; i < ddb.NumEntities() && len(on0) < 2; i++ {
			if tab.Partition(model.EntityID(i)) == 0 {
				on0 = append(on0, model.EntityID(i))
			}
		}
		if len(on0) < 2 {
			t.Fatal("fewer than two entities on partition 0")
		}
		e0, f0, e1 := on0[0], on0[1], entOn(t, tab, ddb, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gone, drop := context.WithCancel(ctx)
		drop()

		if err := tab.Acquire(ctx, inst(9), f0, locktable.Exclusive); err != nil {
			t.Fatal(err)
		}
		// The pool hands a record back to the goroutine that returned it,
		// most of the time: retry with fresh instances until it does.
		var a, b int
		var cb locktable.Completion
		for attempt := 0; ; attempt++ {
			if attempt == 200 {
				t.Fatal("the parked acquire never drew the waited acquire's record")
			}
			a, b = 10+2*attempt, 11+2*attempt
			ca := tab.AcquireAsync(inst(a), e0, locktable.Exclusive)
			if err := ca.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			cb = tab.AcquireAsync(inst(b), f0, locktable.Exclusive) // parks behind 9
			if cb == ca {
				break
			}
			if err := cb.Wait(gone); !errors.Is(err, context.Canceled) {
				t.Fatalf("withdrawn acquire: %v", err)
			}
			if err := tab.Release(e0, locktable.InstKey{ID: a}); err != nil {
				t.Fatal(err)
			}
		}

		joins := tab.FenceJoins()
		next := make(chan locktable.Completion, 1)
		go func() { next <- tab.AcquireAsync(inst(a), e1, locktable.Exclusive) }()
		select {
		case c := <-next:
			if err := c.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the fence joined another instance's acquire through a recycled record")
		}
		if n := tab.FenceJoins() - joins; n != 1 {
			t.Fatalf("FenceJoins rose by %d, want 1: the waited acquire's slot still counts", n)
		}

		if err := tab.Release(f0, locktable.InstKey{ID: 9}); err != nil {
			t.Fatal(err)
		}
		if err := cb.Wait(ctx); err != nil {
			t.Fatalf("the parked instance lost its own grant: %v", err)
		}
		for _, rel := range []struct {
			ent model.EntityID
			id  int
		}{{e0, a}, {e1, a}, {f0, b}} {
			if err := tab.Release(rel.ent, locktable.InstKey{ID: rel.id}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
