package netlock

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
)

// The conformance suite (internal/locktable, run against a loopback pair
// registered from its external test package) covers the blocking
// semantics shared with the in-process backends. The tests here cover
// what only the networked backend has: sessions that die, leases that
// expire and releases that go stale.

func testDDB(t *testing.T, n int) (*model.DDB, []model.EntityID) {
	t.Helper()
	ddb := model.NewDDB()
	ents := make([]model.EntityID, n)
	for i := range ents {
		ents[i] = ddb.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%2))
	}
	return ddb, ents
}

func startServer(t *testing.T, ddb *model.DDB, cfg locktable.Config, opts ServerOptions) *Server {
	t.Helper()
	srv, err := NewServer(ddb, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func dial(t *testing.T, srv *Server, cfg locktable.Config, opts DialOptions) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), testClientDDB(srv), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// testClientDDB returns the server's database — in these tests both ends
// share the process, which is exactly what the fingerprint handshake
// permits.
func testClientDDB(srv *Server) *model.DDB { return srv.ddb }

func acquire(t *testing.T, c *Client, id int, ent model.EntityID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	inst := locktable.Instance{Key: locktable.InstKey{ID: id}}
	if err := c.Acquire(ctx, inst, ent, locktable.Exclusive); err != nil {
		t.Fatalf("Acquire(%d, %v) = %v", id, ent, err)
	}
}

// fenceOf reads the client's grant record for (ent, id) (white-box):
// whether the acquire was granted, and whether a record or in-flight mark
// exists at all.
func fenceOf(c *Client, ent model.EntityID, id int) (granted, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.grants[grantRef{ent: ent, key: locktable.InstKey{ID: id}}]
	if !ok {
		return false, false
	}
	return a.granted, true
}

// TestKilledConnMidAcquire: a connection dying while its acquire is
// parked must not leave a ghost in the queue — and a grant racing the
// death bounces back instead of leaking.
func TestKilledConnMidAcquire(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	holder := dial(t, srv, locktable.Config{}, DialOptions{})
	victim := dial(t, srv, locktable.Config{}, DialOptions{})

	acquire(t, holder, 1, ents[0])
	parked := make(chan error, 1)
	go func() {
		parked <- victim.Acquire(context.Background(),
			locktable.Instance{Key: locktable.InstKey{ID: 2}}, ents[0], locktable.Exclusive)
	}()
	waitFor(t, func() bool { return srv.TableMetrics().Waiting.Load() == 1 })

	victim.Close() // the wire sees exactly what a crash looks like: EOF
	if err := <-parked; !errors.Is(err, locktable.ErrStopped) {
		t.Fatalf("parked Acquire on killed conn = %v, want ErrStopped", err)
	}
	// The ghost request is withdrawn server-side; release-and-reacquire
	// proves the entity flows past the dead session. (A grant that raced
	// the teardown is released back by the server, so this succeeds either
	// way — it may just take the bounce.)
	if err := holder.Release(ents[0], locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
	probe := dial(t, srv, locktable.Config{}, DialOptions{})
	acquire(t, probe, 3, ents[0])
	waitFor(t, func() bool { return srv.TableMetrics().Waiting.Load() == 0 })
}

// TestDuplicateSharedAcquireOverWire: a wire client is outside input, so
// the server must survive a repeated acquire in any pair of modes. Its
// grant book keeps one record per (connection, instance, entity) and
// answers the repeat from it, so the hosted table never sees the repeat:
// it returns at once, upgrades no mode, and one release frees the lock. The
// hosted table runs its CAS shared fast path, which would count a repeated
// shared acquire as a second anonymous reader that no release frees.
func TestDuplicateSharedAcquireOverWire(t *testing.T) {
	S, X := locktable.Shared, locktable.Exclusive
	for _, tc := range []struct{ held, repeat locktable.Mode }{{S, S}, {S, X}, {X, S}, {X, X}} {
		t.Run(fmt.Sprintf("%v-then-%v", tc.held, tc.repeat), func(t *testing.T) {
			ddb, ents := testDDB(t, 1)
			e := ents[0]
			srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
			holder := dial(t, srv, locktable.Config{}, DialOptions{})
			other := dial(t, srv, locktable.Config{}, DialOptions{})
			in := locktable.Instance{Key: locktable.InstKey{ID: 1}}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := holder.Acquire(ctx, in, e, tc.held); err != nil {
				t.Fatalf("first acquire: %v", err)
			}
			rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer rcancel()
			if err := holder.Acquire(rctx, in, e, tc.repeat); err != nil {
				t.Fatalf("repeat acquire = %v, want nil at once", err)
			}

			// No upgrade: another connection's reader is admitted beside a
			// shared hold and blocked by an exclusive one.
			r := locktable.Instance{Key: locktable.InstKey{ID: 2}}
			pctx, pcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer pcancel()
			err := other.Acquire(pctx, r, e, S)
			if tc.held == S {
				if err != nil {
					t.Fatalf("reader beside a shared hold = %v; the repeat upgraded it", err)
				}
				if err := other.Release(e, r.Key); err != nil {
					t.Fatal(err)
				}
				if n := srv.TableMetrics().Snapshot().FastPathHits; n == 0 {
					t.Fatal("no shared grant took the hosted table's CAS fast path")
				}
			} else if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("reader beside an exclusive hold = %v, want DeadlineExceeded", err)
			}

			if err := holder.Release(e, in.Key); err != nil {
				t.Fatal(err)
			}
			if held := srv.TableMetrics().Snapshot().Held; held != 0 {
				t.Errorf("server table holds %d locks after the one release, want 0", held)
			}
			wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer wcancel()
			w := locktable.Instance{Key: locktable.InstKey{ID: 3}}
			if err := other.Acquire(wctx, w, e, X); err != nil {
				t.Fatalf("writer after the one release = %v; the repeat stranded a reader", err)
			}
			if err := other.Release(e, w.Key); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelinedRepeatAnsweredFromBook: a repeat shipped while the first
// acquire is still parked waits in the instance's chain, and the book
// answers it in its turn, after the first was granted and booked.
func TestPipelinedRepeatAnsweredFromBook(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	e := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	holder := dial(t, srv, locktable.Config{}, DialOptions{})
	other := dial(t, srv, locktable.Config{}, DialOptions{})
	acquire(t, other, 9, e)

	in := locktable.Instance{Key: locktable.InstKey{ID: 1}}
	first := holder.AcquireAsync(in, e, locktable.Shared)
	waitFor(t, func() bool { return srv.TableMetrics().Waiting.Load() == 1 })
	repeat := holder.AcquireAsync(in, e, locktable.Shared)
	waitFor(t, func() bool { // the repeat waits in the first's chain
		srv.connsMu.RLock()
		defer srv.connsMu.RUnlock()
		queued := 0
		for _, sc := range srv.conns {
			sc.mu.Lock()
			for _, ch := range sc.chains {
				queued += len(ch.q)
			}
			sc.mu.Unlock()
		}
		return queued == 1
	})
	if err := other.Release(e, locktable.InstKey{ID: 9}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := first.Wait(ctx); err != nil {
		t.Fatalf("first acquire = %v", err)
	}
	if err := repeat.Wait(ctx); err != nil {
		t.Fatalf("pipelined repeat = %v", err)
	}
	if err := holder.Release(e, in.Key); err != nil {
		t.Fatal(err)
	}
	if held := srv.TableMetrics().Snapshot().Held; held != 0 {
		t.Errorf("server table holds %d locks after the one release, want 0", held)
	}
	if err := other.Acquire(ctx, locktable.Instance{Key: locktable.InstKey{ID: 3}}, e, locktable.Exclusive); err != nil {
		t.Fatalf("writer after the one release = %v; the pipelined repeat stranded a reader", err)
	}
}

// gatedTable wraps the hosted table. Armed, its TryAcquire misses and its
// Acquire signals reached, then waits for its context to be cancelled
// before it forwards (and disarms): a request the server hands the table
// is held there until it is withdrawn.
type gatedTable struct {
	locktable.Table
	try     locktable.TryAcquirer
	armed   atomic.Bool
	reached chan struct{}
}

func (g *gatedTable) TryAcquire(inst locktable.Instance, ent model.EntityID, mode locktable.Mode) (bool, error) {
	if g.armed.Load() {
		return false, nil
	}
	return g.try.TryAcquire(inst, ent, mode)
}

func (g *gatedTable) Acquire(ctx context.Context, inst locktable.Instance, ent model.EntityID, mode locktable.Mode) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.reached)
		<-ctx.Done()
	}
	return g.Table.Acquire(ctx, inst, ent, mode)
}

// TestRepeatAcquireCancelKeepsHold: a holder's repeated acquire that is
// cancelled must not free the hold. Had the repeat reached the table, the
// table would grant it (the instance holds the entity) as the cancel
// lands, and the server would give that "racing" grant back — releasing
// the one hold its book still records. The book answers the repeat
// instead, so the table never sees it, and another connection's writer
// stays blocked until the holder's own release.
func TestRepeatAcquireCancelKeepsHold(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	x := ents[0]
	var gate *gatedTable
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{
		Lease: time.Minute,
		New: func(ddb *model.DDB, cfg locktable.Config) locktable.Table {
			tab := locktable.NewSharded(ddb, cfg)
			gate = &gatedTable{Table: tab, try: tab.(locktable.TryAcquirer), reached: make(chan struct{})}
			return gate
		},
	})
	a := dial(t, srv, locktable.Config{}, DialOptions{})
	b := dial(t, srv, locktable.Config{}, DialOptions{})
	acquire(t, a, 1, x)

	gate.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repeat := make(chan error, 1)
	go func() {
		repeat <- a.Acquire(ctx, locktable.Instance{Key: locktable.InstKey{ID: 1}}, x, locktable.Exclusive)
	}()
	select {
	case <-gate.reached: // the table saw the repeat: withdraw it mid-wait
		cancel()
		select {
		case <-repeat:
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled repeat never returned")
		}
	case err := <-repeat: // the book answered it
		if err != nil {
			t.Fatalf("repeat acquire = %v, want nil", err)
		}
		cancel()
	case <-time.After(5 * time.Second):
		t.Fatal("repeat acquire neither returned nor reached the table")
	}

	pctx, pcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer pcancel()
	if err := b.Acquire(pctx, locktable.Instance{Key: locktable.InstKey{ID: 2}}, x, locktable.Exclusive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second connection's exclusive acquire = %v while the first still holds the entity, want DeadlineExceeded", err)
	}
	if err := a.Release(x, locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
	acquire(t, b, 3, x)
}

// TestCancelledRepeatKeepsClientRecord: a holder's repeated acquire with
// a cancelled context must leave the client's grant record alone, so the
// hold stays until the holder's own Release, and that Release reaches the
// server. The repeat used to overwrite the record with its in-flight
// mark: when the cancel won, unmark then dropped the record and Release
// sent nothing, so the server kept the lock for the connection's life;
// when the server's "granted" won, cancelAcquire gave that grant back,
// which freed the original hold early.
func TestCancelledRepeatKeepsClientRecord(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	x := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	a := dial(t, srv, locktable.Config{}, DialOptions{})
	b := dial(t, srv, locktable.Config{}, DialOptions{})
	for i := 1; i <= 3; i++ {
		key := locktable.InstKey{ID: i}
		acquire(t, a, i, x)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := a.Acquire(ctx, locktable.Instance{Key: key}, x, locktable.Exclusive); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled repeat = %v", err)
		}
		if granted, ok := fenceOf(a, x, i); !granted || !ok {
			t.Fatalf("round %d: the cancelled repeat took the holder's record (granted %v, present %v)", i, granted, ok)
		}
		pctx, pcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := b.Acquire(pctx, locktable.Instance{Key: locktable.InstKey{ID: 100 + i}}, x, locktable.Exclusive)
		pcancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: another connection's writer = %v while the holder holds x; the repeat freed the hold", i, err)
		}
		if err := a.Release(x, key); err != nil {
			t.Fatal(err)
		}
		acquire(t, b, 200+i, x) // within its deadline: the Release reached the server
		if err := b.Release(x, locktable.InstKey{ID: 200 + i}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeaseExpiryWhileHolding: a holder that stops heartbeating is
// revoked — its lock is released to the next requester without its
// cooperation.
func TestLeaseExpiryWhileHolding(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: 150 * time.Millisecond})
	stalled := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})
	live := dial(t, srv, locktable.Config{}, DialOptions{})

	acquire(t, stalled, 1, ents[0])
	// No heartbeats: the sweeper revokes the lease, and the next acquire
	// gets the entity without anyone releasing it.
	acquire(t, live, 2, ents[0])
	if err := live.Release(ents[0], locktable.InstKey{ID: 2}); err != nil {
		t.Fatal(err)
	}
	// The server's wire counters attribute the revocation: exactly one
	// lease expired (the stalled session), and the live session's
	// renewals were received — the sweep fired for missed heartbeats, not
	// for everyone.
	if n := srv.Metrics().LeaseExpiries.Load(); n != 1 {
		t.Fatalf("server counted %d lease expiries, want 1", n)
	}
	if n := srv.Metrics().HeartbeatsRecv.Load(); n == 0 {
		t.Fatal("server counted no heartbeats from the live session")
	}
}

// TestStaleFenceRejected is the fencing acceptance test: a lease-expired
// holder's late release must not free a lock the server has re-granted.
// The release names its owner, and the revoke's tombstone for that name
// rejects it.
func TestStaleFenceRejected(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	e := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: 150 * time.Millisecond})
	stalled := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})
	next := dial(t, srv, locktable.Config{}, DialOptions{})

	acquire(t, stalled, 1, e)
	if granted, ok := fenceOf(stalled, e, 1); !ok || !granted {
		t.Fatalf("no grant recorded for the acquire (granted %v, record %v)", granted, ok)
	}

	// The lease expires; the lock is re-granted to the next session.
	acquire(t, next, 2, e)

	// The stalled holder un-stalls and sends its release — its grant was
	// revoked, so the release is rejected, and the re-granted lock stays
	// held.
	if err := stalled.Release(e, locktable.InstKey{ID: 1}); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("late release after lease expiry = %v, want ErrStaleFence", err)
	}
	if n := srv.Metrics().FenceRejections.Load(); n != 1 {
		t.Fatalf("server counted %d fence rejections, want 1", n)
	}
	probeCtx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := next.Acquire(probeCtx, locktable.Instance{Key: locktable.InstKey{ID: 3}}, e, locktable.Exclusive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe acquired a lock the stale release should not have freed (err=%v)", err)
	}
	// The rightful holder's release works.
	if err := next.Release(e, locktable.InstKey{ID: 2}); err != nil {
		t.Fatal(err)
	}
	acquire(t, next, 3, e)
}

// TestLeaseExpiryWakesParkedAcquire: a session whose lease lapses while
// it waits gets ErrLeaseExpired, not an eternal park.
func TestLeaseExpiryWakesParkedAcquire(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: 150 * time.Millisecond})
	holder := dial(t, srv, locktable.Config{}, DialOptions{})
	stalled := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})

	acquire(t, holder, 1, ents[0])
	got := make(chan error, 1)
	go func() {
		got <- stalled.Acquire(context.Background(),
			locktable.Instance{Key: locktable.InstKey{ID: 2}}, ents[0], locktable.Exclusive)
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("parked Acquire past lease = %v, want ErrLeaseExpired", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease expiry did not wake the parked Acquire")
	}
	if n := srv.TableMetrics().Waiting.Load(); n != 0 {
		t.Fatalf("revoked request still queued: %d waiting", n)
	}
}

// TestDisconnectReleasesHeldLocks: after a session dies holding a lock,
// the server has no ghost request parked and a fresh session can take the
// dead session's entities immediately.
func TestDisconnectReleasesHeldLocks(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})

	first := dial(t, srv, locktable.Config{}, DialOptions{})
	acquire(t, first, 1, ents[0])
	acquire(t, first, 1, ents[1])
	if err := first.Release(ents[0], locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
	first.Close() // still holding ents[1]: release-on-disconnect frees it

	second := dial(t, srv, locktable.Config{}, DialOptions{})
	if n := srv.TableMetrics().Waiting.Load(); n != 0 {
		t.Fatalf("ghost requests parked after reconnect: %d waiting", n)
	}
	acquire(t, second, 1, ents[1]) // immediately grantable: nothing leaked
}

// TestHandshakeRejects: a client over the wrong database is told so
// instead of corrupting the table.
func TestHandshakeRejects(t *testing.T) {
	ddb, _ := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})

	otherDDB, _ := testDDB(t, 3)
	if _, err := Dial(srv.Addr(), otherDDB, locktable.Config{}, DialOptions{}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("dial over a different DDB = %v, want fingerprint rejection", err)
	}
}

// TestLeaseRecoveryAfterExpiry: a session that resumes heartbeating after
// an expiry gets a fresh lease — new acquires work, the old grants stay
// gone.
func TestLeaseRecoveryAfterExpiry(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	e := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: 150 * time.Millisecond})
	c := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})

	acquire(t, c, 1, e)
	waitFor(t, func() bool {
		// The revoked grant frees the entity for a probe session.
		p := dial(t, srv, locktable.Config{}, DialOptions{})
		defer p.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		err := p.Acquire(ctx, locktable.Instance{Key: locktable.InstKey{ID: 7}}, e, locktable.Exclusive)
		if err == nil {
			p.Release(e, locktable.InstKey{ID: 7})
			return true
		}
		return false
	})
	// Manual heartbeat: the session's next renewal restores the lease…
	if _, err := c.call(func(reqID uint64, enc *enc) {
		enc.u8(opHeartbeat)
		enc.u64(reqID)
	}); err != nil {
		t.Fatal(err)
	}
	// …so new acquires succeed again (the dead grant's record is gone, and
	// its release is stale).
	acquire(t, c, 1, ents[1])
	if err := c.Release(e, locktable.InstKey{ID: 1}); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("release of revoked grant = %v, want ErrStaleFence", err)
	}
	if err := c.Release(ents[1], locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestHandshakeRejectsStaleProtocolVersion: every earlier protocol
// version must be rejected at the handshake with a message naming both
// versions. A v1 dialer (exclusive-only: no opAcquire mode byte, none
// expected in grant-log events) would be half-parsed into silently-
// exclusive semantics; v2 peers disagree on token-0 releases (a v2 server
// would reject a v3 client's token-0 release of a held entity as stale
// and leave the lock held); v3 peers frame a fencing token into every
// grant reply and release that v4 dropped; v4 peers send the snapshot
// request (0x08) that v5 rejects as an unknown opcode; v5 peers frame a
// wound-wait byte into the hello and a priority and an epoch into every
// acquire that v6 dropped; v6 peers frame no holding byte into an acquire,
// and a v7 server would read a v6 sampled marker as one; v7 peers frame a
// trace byte into the hello that v8 dropped; a v8 server would read a v9
// try acquire as a holding one and park it. Each hello here is framed the
// way its version framed it: a wound-wait and a trace byte before v6, a
// trace byte in v6 and v7, neither in v8 (the version is checked first).
func TestHandshakeRejectsStaleProtocolVersion(t *testing.T) {
	ddb, _ := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})

	for _, version := range []uint32{1, 2, 3, 4, 5, 6, 7, 8} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		hash := DDBHash(ddb)
		var e enc
		e.u8(opHello)
		e.u64(1) // reqID
		e.u32(version)
		if version < 6 {
			e.boolean(false) // woundWait
		}
		if version < 8 {
			e.boolean(false) // trace
		}
		e.raw(hash[:])
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(appendFrame(nil, e.b)); err != nil {
			t.Fatal(err)
		}
		body, err := readFrameInto(nc, new([]byte))
		if err != nil {
			t.Fatalf("v%d: no handshake reply: %v", version, err)
		}
		d := dec{b: body}
		if op := d.u8(); op != opResult {
			t.Fatalf("v%d: reply opcode %#x, want opResult", version, op)
		}
		d.u64() // reqID
		if status := d.u8(); status != stErr {
			t.Fatalf("v%d hello status %#x, want stErr", version, status)
		}
		msg := d.str()
		want := fmt.Sprintf("protocol version %d, server speaks %d", version, protocolVersion)
		if d.err != nil || !strings.Contains(msg, want) {
			t.Fatalf("rejection message %q does not name both versions (%q)", msg, want)
		}
		// The server hung up: the next read is EOF, not a session.
		if _, err := readFrameInto(nc, new([]byte)); err == nil {
			t.Fatalf("server kept a v%d connection open", version)
		}
	}
}
