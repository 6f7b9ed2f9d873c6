package netlock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
)

// These tests cover the batching/pipelining layer: the flush-coalescing
// writer (heartbeat priority, deterministic close) and the server-side
// per-instance acquire chains that make client pipelining sound.

// TestHeartbeatsSurviveSaturatedSendQueue: heartbeats ride the same
// flush-coalescing writer as every other frame, but at priority — a send
// queue saturated by pipelined traffic must not delay a renewal past the
// lease. The lease is short and eight flooders keep the queue deep, so a
// regression that queues heartbeats FIFO behind the flood (instead of
// draining the priority queue first) expires the lease and fails ops
// with ErrLeaseExpired.
func TestHeartbeatsSurviveSaturatedSendQueue(t *testing.T) {
	const (
		flooders = 8
		depth    = 8 // entities per flooder, pipelined per burst
	)
	ddb, ents := testDDB(t, flooders*depth)
	lease := 400 * time.Millisecond
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: lease})
	c := dial(t, srv, locktable.Config{}, DialOptions{})

	deadline := time.Now().Add(3 * lease)
	errCh := make(chan error, flooders)
	var wg sync.WaitGroup
	for g := 0; g < flooders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// One instance per flooder over its own disjoint entity slice —
			// the shape a certified pipelined session has. Every burst puts
			// depth acquire frames and then depth release frames into the
			// send queue without waiting for acks in between, keeping the
			// queue deep.
			id := 1 + g
			inst := locktable.Instance{Key: locktable.InstKey{ID: id}, Prio: int64(id)}
			mine := ents[g*depth : (g+1)*depth]
			for time.Now().Before(deadline) {
				comps := make([]locktable.Completion, depth)
				for i, e := range mine {
					comps[i] = c.AcquireAsync(inst, e, locktable.Exclusive)
				}
				for i := range comps {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := comps[i].Wait(ctx)
					cancel()
					if err != nil {
						errCh <- fmt.Errorf("flooder %d acquire %v: %w", g, mine[i], err)
						return
					}
				}
				rels := make([]locktable.Completion, depth)
				for i, e := range mine {
					rels[i] = c.ReleaseAsync(e, locktable.InstKey{ID: id})
				}
				for i := range rels {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := rels[i].Wait(ctx)
					cancel()
					if err != nil {
						errCh <- fmt.Errorf("flooder %d release %v: %w", g, mine[i], err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		// Any ErrLeaseExpired here means the flood starved a heartbeat.
		t.Error(err)
	}
	// The session survived the flood with its lease intact: one more
	// synchronous op still works.
	acquire(t, c, 7001, ents[0])
	if err := c.Release(ents[0], locktable.InstKey{ID: 7001}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseFailsRacingOpsDeterministically: Close drains and fails the
// send queue before tearing down the transport, so an op racing Close
// gets an honest ErrStopped — never a hang waiting for a reply that will
// not come, and never a spurious success for a frame that was dropped
// unflushed.
func TestCloseFailsRacingOpsDeterministically(t *testing.T) {
	ddb, ents := testDDB(t, 4)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})

	for round := 0; round < 5; round++ {
		c, err := Dial(srv.Addr(), testClientDDB(srv), locktable.Config{}, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}

		const racers = 8
		errCh := make(chan error, racers)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ent := ents[g%len(ents)]
				for i := 0; ; i++ {
					id := 1 + g*1000 + i
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					inst := locktable.Instance{Key: locktable.InstKey{ID: id}, Prio: int64(id)}
					err := c.Acquire(ctx, inst, ent, locktable.Exclusive)
					cancel()
					if err != nil {
						errCh <- err
						return
					}
					if err := c.Release(ent, locktable.InstKey{ID: id}); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		// Let the racers build up in-flight traffic, then slam the door.
		time.Sleep(2 * time.Millisecond)
		c.Close()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if !errors.Is(err, locktable.ErrStopped) {
				t.Fatalf("round %d: op racing Close = %v, want ErrStopped", round, err)
			}
		}
	}
}

// TestFireAndForgetFailureScopedToInstance: a stale-release push for one
// instance's fire-and-forget release fails that instance's join only. Once
// the lease is renewed, another instance's release on the same client
// joins clean — the failure is not a connection-wide latch — and the
// failing instance's record is consumed by its join.
func TestFireAndForgetFailureScopedToInstance(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: 150 * time.Millisecond})
	c := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})

	acquire(t, c, 1, ents[0])
	waitFor(t, func() bool { return srv.Metrics().LeaseExpiries.Load() >= 1 })
	stale := c.ReleaseAsync(ents[0], locktable.InstKey{ID: 1})
	waitFor(t, func() bool { return c.Metrics().FenceRejections.Load() == 1 })

	// Renew the lease by hand and keep it renewed for the rest of the test.
	heartbeat := func() {
		if _, err := c.call(func(reqID uint64, e *enc) {
			e.u8(opHeartbeat)
			e.u64(reqID)
		}); err != nil {
			t.Error(err)
		}
	}
	heartbeat()
	done := make(chan struct{})
	var beats sync.WaitGroup
	beats.Add(1)
	go func() {
		defer beats.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Millisecond):
				heartbeat()
			}
		}
	}()
	defer func() {
		close(done)
		beats.Wait()
	}()

	acquire(t, c, 2, ents[1])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.ReleaseAsync(ents[1], locktable.InstKey{ID: 2}).Wait(ctx); err != nil {
		t.Fatalf("healthy instance's release after renewal = %v, want nil (failure leaked across instances)", err)
	}
	if err := stale.Wait(ctx); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("stale instance's release = %v, want ErrStaleFence", err)
	}
	c.mu.Lock()
	left := len(c.ffErrs)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d failure records left after the failing instance joined", left)
	}
}

// TestPipelinedChainHappyPath: a depth-K pipelined chain over one
// connection resolves every completion in submission order — joins after
// the fact see the grants recorded, and the piped releases leave the
// table empty.
func TestPipelinedChainHappyPath(t *testing.T) {
	ddb, ents := testDDB(t, 6)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	c := dial(t, srv, locktable.Config{}, DialOptions{})

	inst := locktable.Instance{Key: locktable.InstKey{ID: 3}, Prio: 3}
	comps := make([]locktable.Completion, len(ents))
	for i, e := range ents {
		comps[i] = c.AcquireAsync(inst, e, locktable.Exclusive)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, comp := range comps {
		if err := comp.Wait(ctx); err != nil {
			t.Fatalf("pipelined acquire %d = %v", i, err)
		}
		if granted, ok := fenceOf(c, ents[i], 3); !ok || !granted {
			t.Fatalf("no grant recorded after joined acquire %d", i)
		}
	}
	rels := make([]locktable.Completion, len(ents))
	for i, e := range ents {
		rels[i] = c.ReleaseAsync(e, locktable.InstKey{ID: 3})
	}
	for i, rel := range rels {
		if err := rel.Wait(ctx); err != nil {
			t.Fatalf("pipelined release %d = %v", i, err)
		}
	}
	// Everything is free again.
	probe := dial(t, srv, locktable.Config{}, DialOptions{})
	for _, e := range ents {
		acquire(t, probe, 4, e)
	}
}

// Token-0 releases (the name predates protocol v4, when such a release
// carried fencing token 0): a release shipped before its own acquire's
// ack, naming "the grant my acquire records". These tests pin how the
// server resolves one and what the client books.

// noRecord reports whether the client holds neither a grant record nor an
// in-flight mark for (ent, id) (white-box).
func noRecord(c *Client, ent model.EntityID, id int) bool {
	_, ok := fenceOf(c, ent, id)
	return !ok
}

// TestTokenZeroReleaseBehindParkedAcquire: an acquire parked behind a
// foreign holder with its release submitted at once frees the entity the
// moment it is granted. Both completions join clean, nobody's books show
// the lock held, no fence is rejected, and the client keeps no record.
func TestTokenZeroReleaseBehindParkedAcquire(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	x := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	holder := dial(t, srv, locktable.Config{}, DialOptions{})
	c := dial(t, srv, locktable.Config{}, DialOptions{})

	acquire(t, holder, 1, x)
	inst := locktable.Instance{Key: locktable.InstKey{ID: 2}, Prio: 2}
	acq := c.AcquireAsync(inst, x, locktable.Exclusive)
	waitFor(t, func() bool { return srv.TableMetrics().Waiting.Load() == 1 }) // parked
	rel := c.ReleaseAsync(x, inst.Key)                                        // shipped early, chained behind it
	if err := holder.Release(x, locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := acq.Wait(ctx); err != nil {
		t.Fatalf("parked acquire = %v", err)
	}
	if err := rel.Wait(ctx); err != nil {
		t.Fatalf("token-0 release = %v", err)
	}

	acquire(t, holder, 3, x) // grantable again
	if err := holder.Release(x, locktable.InstKey{ID: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.TableMetrics().Snapshot().Held == 0 })
	m := c.TableMetrics().Snapshot()
	if m.Held != 0 || m.Grants != 1 {
		t.Fatalf("client books grants=%d held=%d, want 1 and 0", m.Grants, m.Held)
	}
	if n := srv.Metrics().FenceRejections.Load() + c.Metrics().FenceRejections.Load(); n != 0 {
		t.Fatalf("%d fence rejections for a token-0 release of a live grant", n)
	}
	if !noRecord(c, x, 2) {
		t.Fatal("client kept a record for a grant its token-0 release freed")
	}
}

// TestTokenZeroReleaseAfterLeaseRevokeIsStale: a lease revoked between a
// grant and its release leaves a tombstone, so the release is rejected as
// stale — joined before the revoke or shipped early, acked or
// fire-and-forget — instead of passing for the no-op of a failed acquire.
// Without it, a lease lost mid-transaction would commit clean. Every
// tombstone is consumed by the first release naming its grant, so none
// outlives the transaction.
func TestTokenZeroReleaseAfterLeaseRevokeIsStale(t *testing.T) {
	ddb, ents := testDDB(t, 3)
	x, y, z := ents[0], ents[1], ents[2]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: 150 * time.Millisecond})
	c := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})

	ix := locktable.Instance{Key: locktable.InstKey{ID: 1}, Prio: 1}
	iy := locktable.Instance{Key: locktable.InstKey{ID: 2}, Prio: 2}
	acquire(t, c, 3, z) // joined before the revoke: a recorded grant
	ax := c.AcquireAsync(ix, x, locktable.Exclusive)
	ay := c.AcquireAsync(iy, y, locktable.Exclusive)
	waitFor(t, func() bool { return srv.TableMetrics().Snapshot().Grants == 3 }) // all granted
	waitFor(t, func() bool { return srv.Metrics().LeaseExpiries.Load() >= 1 })   // and revoked
	if err := c.Release(z, locktable.InstKey{ID: 3}); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("release of a revoked joined grant = %v, want ErrStaleFence", err)
	}
	rx := c.ReleaseAsyncAcked(x, ix.Key)
	ry := c.ReleaseAsync(y, iy.Key)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rx.Wait(ctx); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("acked token-0 release after revoke = %v, want ErrStaleFence", err)
	}
	waitFor(t, func() bool { return c.Metrics().FenceRejections.Load() == 3 }) // the push landed
	if err := ry.Wait(ctx); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("fire-and-forget token-0 release after revoke = %v, want ErrStaleFence", err)
	}
	for _, a := range []locktable.Completion{ax, ay} {
		if err := a.Wait(ctx); err != nil {
			t.Fatalf("acquire granted before the revoke = %v", err)
		}
	}
	if n := srv.Metrics().FenceRejections.Load(); n != 3 {
		t.Fatalf("server counted %d fence rejections, want 3", n)
	}
	if held := c.TableMetrics().Snapshot().Held; held != 0 {
		t.Fatalf("client books %d held", held)
	}
	if !noRecord(c, x, 1) || !noRecord(c, y, 2) || !noRecord(c, z, 3) {
		t.Fatal("client kept records after the releases")
	}
	srv.connsMu.RLock()
	defer srv.connsMu.RUnlock()
	for _, sc := range srv.conns {
		sc.mu.Lock()
		n := len(sc.tombs)
		sc.mu.Unlock()
		if n != 0 {
			t.Fatalf("server kept %d tombstones after every revoked grant was released", n)
		}
	}
}

// TestCancelledAcquireWithChainedTokenZeroRelease: withdrawing a parked
// acquire whose early release is already chained behind it leaves the
// release the silent no-op — no fence rejection on either side — and the
// client with no mark, while the foreign holder keeps its lock.
func TestCancelledAcquireWithChainedTokenZeroRelease(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	x := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	holder := dial(t, srv, locktable.Config{}, DialOptions{})
	c := dial(t, srv, locktable.Config{}, DialOptions{})

	acquire(t, holder, 1, x)
	inst := locktable.Instance{Key: locktable.InstKey{ID: 2}, Prio: 2}
	acq := c.AcquireAsync(inst, x, locktable.Exclusive)
	waitFor(t, func() bool { return srv.TableMetrics().Waiting.Load() == 1 }) // parked
	rel := c.ReleaseAsyncAcked(x, inst.Key)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := acq.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := rel.Wait(ctx); err != nil {
		t.Fatalf("token-0 release behind a withdrawn acquire = %v, want the no-op", err)
	}
	if n := srv.Metrics().FenceRejections.Load() + c.Metrics().FenceRejections.Load(); n != 0 {
		t.Fatalf("%d fence rejections for a withdrawn acquire's release", n)
	}
	if !noRecord(c, x, 2) {
		t.Fatal("cancelled acquire left an in-flight mark")
	}
	if held := c.TableMetrics().Snapshot().Held; held != 0 {
		t.Fatalf("client books %d held", held)
	}
	// The holder was never disturbed: the entity is still its own.
	probeCtx, probeCancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer probeCancel()
	err := c.Acquire(probeCtx, locktable.Instance{Key: locktable.InstKey{ID: 3}, Prio: 3}, x, locktable.Exclusive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe acquired a lock the holder still has (err=%v)", err)
	}
}
