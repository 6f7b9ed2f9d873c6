package netlock

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
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
// the server must survive a repeated shared acquire. It keeps one grant
// record per (connection, instance, entity), so one release frees the
// lock and a writer on another connection gets it. This is why the server
// turns off the hosted table's anonymous shared fast path, which would
// count the duplicate as a second reader that no release frees.
func TestDuplicateSharedAcquireOverWire(t *testing.T) {
	ddb, ents := testDDB(t, 1)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	reader := dial(t, srv, locktable.Config{}, DialOptions{})
	writer := dial(t, srv, locktable.Config{}, DialOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in := locktable.Instance{Key: locktable.InstKey{ID: 1}}
	for i := 1; i <= 2; i++ {
		if err := reader.Acquire(ctx, in, ents[0], locktable.Shared); err != nil {
			t.Fatalf("shared acquire %d: %v", i, err)
		}
	}
	if err := reader.Release(ents[0], in.Key); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer wcancel()
	w := locktable.Instance{Key: locktable.InstKey{ID: 2}}
	if err := writer.Acquire(wctx, w, ents[0], locktable.Exclusive); err != nil {
		t.Fatalf("writer after the one release = %v; the duplicate shared acquire stranded a reader", err)
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

// TestGrantLogAcrossReconnect: after a session dies, the server has no
// ghost request parked, a fresh session can take the dead session's
// entities immediately, and the grant log still carries the full history
// — the dead session's events under composed foreign IDs, its own under
// local IDs.
func TestGrantLogAcrossReconnect(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	cfg := locktable.Config{Trace: true}
	srv := startServer(t, ddb, cfg, ServerOptions{Lease: time.Minute})

	first := dial(t, srv, cfg, DialOptions{})
	acquire(t, first, 1, ents[0])
	acquire(t, first, 1, ents[1])
	if err := first.Release(ents[0], locktable.InstKey{ID: 1}); err != nil {
		t.Fatal(err)
	}
	first.Close() // still holding ents[1]: release-on-disconnect frees it

	second := dial(t, srv, cfg, DialOptions{})
	if n := srv.TableMetrics().Waiting.Load(); n != 0 {
		t.Fatalf("ghost requests parked after reconnect: %d waiting", n)
	}
	acquire(t, second, 1, ents[1]) // immediately grantable: nothing leaked

	log := second.GrantLog()
	var foreign, local int
	for _, ev := range log {
		if ev.Inst == 1 {
			local++
		} else if ev.Inst > 1<<32 {
			foreign++
		} else {
			t.Fatalf("grant event with unexpected instance id: %+v", ev)
		}
	}
	if foreign != 2 || local != 1 {
		t.Fatalf("grant log across reconnect = %v (want 2 foreign events, 1 local)", log)
	}
}

// TestHandshakeRejects: a client over the wrong database, or with a
// mismatched discipline, is told so instead of corrupting the table.
func TestHandshakeRejects(t *testing.T) {
	ddb, _ := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})

	otherDDB, _ := testDDB(t, 3)
	if _, err := Dial(srv.Addr(), otherDDB, locktable.Config{}, DialOptions{}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("dial over a different DDB = %v, want fingerprint rejection", err)
	}
	if _, err := Dial(srv.Addr(), ddb, locktable.Config{Trace: true}, DialOptions{}); err == nil ||
		!strings.Contains(err.Error(), "trace") {
		t.Fatalf("dial with mismatched trace = %v, want rejection", err)
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
// and a v7 server would read a v6 sampled marker as one. Every hello here
// is framed the pre-v6 way (the version is checked first).
func TestHandshakeRejectsStaleProtocolVersion(t *testing.T) {
	ddb, _ := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})

	for _, version := range []uint32{1, 2, 3, 4, 5, 6} {
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
		e.boolean(false) // woundWait
		e.boolean(false) // trace
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
