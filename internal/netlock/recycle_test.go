package netlock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"distlock/internal/locktable"
	"distlock/internal/obs"
)

// TestIdleWriterKeepsBuffers: each writer is double-buffered — the
// client's request and heartbeat queues and the server's reply queue each
// cycle through two arrays — so sequential round trips, each flush
// followed by idle writer passes, grow no array past the first two.
func TestIdleWriterKeepsBuffers(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	c := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})
	var sc *srvConn
	waitFor(t, func() bool {
		srv.connsMu.RLock()
		defer srv.connsMu.RUnlock()
		for _, x := range srv.conns {
			sc = x
		}
		return sc != nil
	})
	// seen records every array a queue held after a round trip. The
	// pointers keep the arrays alive, so a fresh array never reuses an
	// address already counted.
	seen := map[string]map[*byte]bool{}
	record := func(name string, mu *sync.Mutex, q *frameQueue) {
		mu.Lock()
		defer mu.Unlock()
		if seen[name] == nil {
			seen[name] = map[*byte]bool{}
		}
		for _, b := range [][]byte{q.b, q.spare} {
			if cap(b) > 0 {
				seen[name][unsafe.SliceData(b)] = true
			}
		}
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		// A heartbeat on the priority queue, an acquire and an acked
		// release on the request queue: each reply arrives after both
		// writers flushed, idle passes included.
		r := c.newRequest(opHeartbeat)
		reqID := c.register(r, false)
		if err := c.enqueue(frameOf(func(e *enc) { e.u8(opHeartbeat); e.u64(reqID) }), true, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.await(r); err != nil {
			t.Fatal(err)
		}
		acquire(t, c, 1, ents[0])
		if err := c.Release(ents[0], locktable.InstKey{ID: 1}); err != nil {
			t.Fatal(err)
		}
		record("client requests", &c.out.mu, &c.out.q)
		record("client heartbeats", &c.out.mu, &c.out.prio)
		record("server replies", &sc.out.mu, &sc.out.q)
	}
	for name, arrays := range seen {
		if len(arrays) != 2 {
			t.Errorf("%s: %d arrays over %d round trips, want the same 2 throughout", name, len(arrays), rounds)
		}
	}
}

// TestDroppedConnWriterDiscards: closing a flusher refuses every later
// push and drops what was queued, and dropConn closes the connection's
// reply writer — so a late reply (a chain resolving after the teardown)
// is discarded instead of piling up in a dead connection's queue, and
// the writer keeps no frame, array or span.
func TestDroppedConnWriterDiscards(t *testing.T) {
	empty := func(name string, f *flusher) {
		t.Helper()
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, b := range [][]byte{f.prio.b, f.prio.spare, f.q.b, f.q.spare} {
			if cap(b) > 0 {
				t.Errorf("%s: a queue still holds a %d-byte array", name, cap(b))
			}
		}
		if f.prio.n+f.q.n != 0 || len(f.spans) != 0 {
			t.Errorf("%s: %d frames and %d spans queued", name, f.prio.n+f.q.n, len(f.spans))
		}
	}
	frame := frameOf(func(e *enc) { e.u8(opResult); e.u64(7); e.u8(stOK) })

	// The type alone: frames queued with no writer running die with close.
	f := flusher{wake: make(chan struct{}, 1)}
	ring := obs.NewSpanRing(4)
	if !f.push(frame, true, nil) || !f.push(frame, false, ring.Start(obs.SpanAcquire, 0)) {
		t.Fatal("an open flusher refused a frame")
	}
	f.close()
	if f.push(frame, false, nil) || f.push(frame, true, nil) {
		t.Error("a closed flusher accepted a frame")
	}
	empty("closed flusher", &f)

	// A live server connection whose writer has flushed, and so holds its
	// spare arrays, until dropConn.
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	c := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})
	acquire(t, c, 1, ents[0])
	var sc *srvConn
	srv.connsMu.RLock()
	for _, x := range srv.conns {
		sc = x
	}
	srv.connsMu.RUnlock()
	srv.dropConn(sc)
	sc.result(99, stOK, nil, nil) // a late chain reply
	if sc.out.push(frame, false, nil) {
		t.Error("a dropped connection's writer accepted a frame")
	}
	empty("dropped connection", &sc.out)
}

// TestReplyChannelRecycling drives every path that receives, abandons or
// never creates a reply channel — acquires cancelled while a grant races
// them, acked releases (before and after their acquire's ack), a
// heartbeat stream whose acks nobody reads, and a client closed
// mid-flight beside a live one — and checks that every completion gets
// its own request's outcome. A channel recycled while a send was still
// due would hand one request's reply to another: a completion would then
// report a grant the server never made (two exclusive holders), a release
// would read an acquire's status, or a wait would never return. Run it
// under -race.
func TestReplyChannelRecycling(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	live := dial(t, srv, locktable.Config{}, DialOptions{HeartbeatEvery: time.Millisecond})
	doomed := dial(t, srv, locktable.Config{}, DialOptions{HeartbeatEvery: time.Millisecond})

	// Exclusive holders per entity on the live client. The doomed client's
	// hold dies with its connection at Close while its worker still counts
	// it, so only the live client's holds are counted; its six workers on
	// two entities still catch a double grant.
	var holders [2]atomic.Int32
	var grants, cancels, stops atomic.Int64
	worker := func(c *Client, id int, rounds int, errs chan<- error) {
		rng := rand.New(rand.NewSource(int64(id)))
		key := locktable.InstKey{ID: id}
		inst := locktable.Instance{Key: key}
		stopped := func() {
			if c != doomed {
				errs <- fmt.Errorf("inst %d: ErrStopped on the live client", id)
			}
			stops.Add(1)
		}
		for r := 0; r < rounds; r++ {
			i := rng.Intn(len(ents))
			ent := ents[i]
			if rng.Intn(4) == 0 {
				// An acked release shipped before its acquire's ack: it
				// resolves to whatever the acquire recorded.
				acq := c.AcquireAsync(inst, ent, locktable.Exclusive)
				rel := c.ReleaseAsyncAcked(ent, key)
				aerr, rerr := acq.Wait(context.Background()), rel.Wait(context.Background())
				switch {
				case errors.Is(aerr, locktable.ErrStopped) || errors.Is(rerr, locktable.ErrStopped):
					stopped()
					return
				case aerr != nil || rerr != nil:
					errs <- fmt.Errorf("inst %d: early release: acquire %v, release %v", id, aerr, rerr)
					return
				}
				continue
			}
			// A wait short enough that the cancel races the grant.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(300))*time.Microsecond)
			err := c.Acquire(ctx, inst, ent, locktable.Exclusive)
			cancel()
			switch {
			case errors.Is(err, locktable.ErrStopped):
				stopped()
				return
			case errors.Is(err, context.DeadlineExceeded):
				cancels.Add(1)
				continue
			case err != nil:
				errs <- fmt.Errorf("inst %d: acquire: %v", id, err)
				return
			}
			grants.Add(1)
			if c == live {
				if n := holders[i].Add(1); n != 1 {
					errs <- fmt.Errorf("inst %d: granted %v with %d exclusive holders", id, ent, n)
				}
			}
			time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
			if c == live {
				holders[i].Add(-1)
			}
			if err := c.Release(ent, key); errors.Is(err, locktable.ErrStopped) {
				stopped()
				return
			} else if err != nil {
				errs <- fmt.Errorf("inst %d: release: %v", id, err)
				return
			}
		}
	}

	const workers, rounds = 6, 300
	errs := make(chan error, 2*workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() { defer wg.Done(); worker(live, w+1, rounds, errs) }()
		go func() { defer wg.Done(); worker(doomed, w+1, rounds, errs) }()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		doomed.register(nil, false) // a heartbeat whose ack is still out
		doomed.Close()              // mid-flight: its pending requests resolve ErrStopped
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a completion never got its reply, or Close hung")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d grants, %d cancelled waits, %d ops stopped by Close", grants.Load(), cancels.Load(), stops.Load())
	if grants.Load() == 0 || cancels.Load() == 0 {
		t.Errorf("the drive exercised %d grants and %d cancels; want both", grants.Load(), cancels.Load())
	}
	// Every grant the live client took was released, and the doomed
	// client's died with its connection.
	waitFor(t, func() bool { return srv.TableMetrics().Snapshot().Held == 0 })
	if held := live.TableMetrics().Snapshot().Held; held != 0 {
		t.Errorf("live client holds %d records after the drive", held)
	}
}

// TestRequestRecordRecycling drives every way a request record ends —
// received and recycled, or abandoned — on a live client beside clients
// closed mid-flight, and checks that every completion reports its own
// request's outcome. The pool is shared by every client in the process,
// so a record recycled while its reply was still due (an abandoned wait:
// cancelled, timed out or stopped by Close) would carry a doomed client's
// late ErrStopped, or another request's grant, into the live client's
// next request — or block the live read loop on a full channel. The
// paths: cancels racing grants, pipelined releases (fire-and-forget and
// acked, the receipt joined or abandoned) shipped before their acquire's
// ack, an abort — acquires waited
// with a cancelled context — followed by ReleaseAll, and, once the
// clients are quiet, a second Wait on a received record. Run it under
// -race.
func TestRequestRecordRecycling(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	live := dial(t, srv, locktable.Config{}, DialOptions{HeartbeatEvery: time.Millisecond})
	const doomedN = 3
	var doomed [doomedN]*Client
	for i := range doomed {
		doomed[i] = dial(t, srv, locktable.Config{}, DialOptions{HeartbeatEvery: time.Millisecond})
	}
	var closedAll atomic.Bool
	// Exclusive holders per entity on the live client. A doomed client's
	// hold dies with its connection while its worker still counts it, so
	// only the live client's holds are counted.
	var holders [2]atomic.Int32
	var grants, cancels, aborts, abandoned atomic.Int64
	bg := context.Background()

	worker := func(c *Client, id int, errs chan<- error) {
		rng := rand.New(rand.NewSource(int64(id)))
		key := locktable.InstKey{ID: id}
		inst := locktable.Instance{Key: key}
		// fail reports err unless it is the ErrStopped of a closed doomed
		// client, and reports whether the worker must stop.
		fail := func(what string, err error) bool {
			if err == nil {
				return false
			}
			if c != live && errors.Is(err, locktable.ErrStopped) {
				return true
			}
			errs <- fmt.Errorf("inst %d: %s: %v", id, what, err)
			return true
		}
		for r := 0; c != live || !closedAll.Load() || r < 400; r++ {
			if c != live && r >= 4000 {
				return
			}
			i := rng.Intn(len(ents))
			switch rng.Intn(4) {
			case 0: // pipelined release shipped before its acquire's ack
				acq := c.AcquireAsync(inst, ents[i], locktable.Exclusive)
				switch rng.Intn(3) {
				case 0:
					rel := c.ReleaseAsync(ents[i], key)
					if fail("early release: acquire", acq.Wait(bg)) || fail("early release: release", rel.Wait(bg)) {
						return
					}
				case 1:
					rel := c.ReleaseAsyncAcked(ents[i], key)
					if fail("early release: acquire", acq.Wait(bg)) || fail("early release: receipt", rel.Wait(bg)) {
						return
					}
				default:
					// The receipt waits for the acquire, which may be parked
					// behind another holder: a short join abandons it.
					rel := c.ReleaseAsyncAcked(ents[i], key)
					ctx, cancel := context.WithTimeout(bg, time.Duration(rng.Intn(200))*time.Microsecond)
					err := rel.Wait(ctx)
					cancel()
					if errors.Is(err, context.DeadlineExceeded) {
						abandoned.Add(1)
					} else if fail("early release: receipt", err) {
						return
					}
					if fail("early release: acquire", acq.Wait(bg)) {
						return
					}
				}
			case 1: // an abort: acquires waited with a cancelled context, then ReleaseAll
				a0 := c.AcquireAsync(inst, ents[0], locktable.Exclusive)
				a1 := c.AcquireAsync(inst, ents[1], locktable.Exclusive)
				ctx, cancel := context.WithCancel(bg)
				if rng.Intn(2) == 0 {
					cancel() // else a0 joins uncancelled and is swept as a grant
				}
				err0 := a0.Wait(ctx)
				cancel()
				err1 := a1.Wait(ctx)
				for _, err := range []error{err0, err1} {
					if err != nil && !errors.Is(err, context.Canceled) && fail("abort: acquire", err) {
						return
					}
				}
				if fail("abort: release-all", c.ReleaseAll(ents, key)) {
					return
				}
				if !noRecord(c, ents[0], id) || !noRecord(c, ents[1], id) {
					errs <- fmt.Errorf("inst %d: a record survived the abort's release wave", id)
					return
				}
				aborts.Add(1)
			default: // a wait short enough that the cancel races the grant
				ctx, cancel := context.WithTimeout(bg, time.Duration(rng.Intn(300))*time.Microsecond)
				err := c.Acquire(ctx, inst, ents[i], locktable.Exclusive)
				cancel()
				if errors.Is(err, context.DeadlineExceeded) {
					cancels.Add(1)
					continue
				}
				if fail("acquire", err) {
					return
				}
				grants.Add(1)
				if c == live {
					if n := holders[i].Add(1); n != 1 {
						errs <- fmt.Errorf("inst %d: granted %v with %d exclusive holders", id, ents[i], n)
					}
				}
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				if c == live {
					holders[i].Add(-1)
				}
				if fail("release", c.Release(ents[i], key)) {
					return
				}
			}
		}
	}

	const workers = 3
	errs := make(chan error, 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); worker(live, w+1, errs) }()
		for _, d := range doomed {
			wg.Add(1)
			go func() { defer wg.Done(); worker(d, w+1, errs) }()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range doomed {
			time.Sleep(15 * time.Millisecond)
			d.Close() // mid-flight: its pending requests resolve ErrStopped
		}
		closedAll.Store(true)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a completion never got its reply, or Close hung")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d grants, %d cancelled waits, %d aborts, %d abandoned receipts",
		grants.Load(), cancels.Load(), aborts.Load(), abandoned.Load())
	if grants.Load() == 0 || cancels.Load() == 0 || aborts.Load() == 0 || abandoned.Load() == 0 {
		t.Errorf("the drive exercised %d grants, %d cancels, %d aborts and %d abandoned receipts; want all four",
			grants.Load(), cancels.Load(), aborts.Load(), abandoned.Load())
	}

	// Quiet now: a second Wait on a received record reports errWaitedTwice
	// and consumes nothing, so the next request — which may draw the same
	// record — still gets its own reply.
	key := locktable.InstKey{ID: 99}
	twice := func(what string, c locktable.Completion) {
		t.Helper()
		if err := c.Wait(bg); err != nil {
			t.Fatalf("%s: first wait: %v", what, err)
		}
		if err := c.Wait(bg); !errors.Is(err, errWaitedTwice) {
			t.Fatalf("%s: second wait = %v, want errWaitedTwice", what, err)
		}
	}
	for _, ent := range ents {
		twice("acquire", live.AcquireAsync(locktable.Instance{Key: key}, ent, locktable.Exclusive))
		twice("acked release", live.ReleaseAsyncAcked(ent, key))
	}
	twice("acquire", live.AcquireAsync(locktable.Instance{Key: key}, ents[0], locktable.Exclusive))
	twice("fire-and-forget release", live.ReleaseAsync(ents[0], key))
	waitFor(t, func() bool { return srv.TableMetrics().Snapshot().Held == 0 })
	if held := live.TableMetrics().Snapshot().Held; held != 0 {
		t.Errorf("live client holds %d records after the drive", held)
	}
}

// TestContendedAcquireAllocs: a request that parks costs the wait and
// nothing else. The cycle: instance 1 holds the entity, instance 2's
// Acquire parks behind it, instance 1 releases, and instance 2 is granted
// and releases. In process the cycle allocates nothing, because the
// sharded table pools its waiters. Over the wire (one client and its
// server, both in this process) it allocates only the server's chain
// goroutine: the server recycles its chain items and chain records, and
// the client its request records.
func TestContendedAcquireAllocs(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	rows := []struct {
		name                  string
		maxAllocs, raceAllocs float64
		open                  func(t *testing.T) (locktable.Table, *obs.TableMetrics)
	}{
		{"sharded", 0, 1, func(t *testing.T) (locktable.Table, *obs.TableMetrics) {
			m := obs.NewTableMetrics()
			tab := locktable.NewSharded(ddb, locktable.Config{Metrics: m})
			t.Cleanup(tab.Close)
			return tab, m
		}},
		{"netlock", 1, 12, func(t *testing.T) (locktable.Table, *obs.TableMetrics) {
			srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
			return dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true}), srv.TableMetrics()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tab, m := row.open(t)
			bg := context.Background()
			ent := ents[0]
			holder := locktable.Instance{Key: locktable.InstKey{ID: 1}}
			waiter := locktable.Instance{Key: locktable.InstKey{ID: 2}}
			// One parker goroutine for every cycle: a goroutine per cycle
			// would count its own closure. granted holds the one reply of
			// a cycle, so a failed cycle leaves the parker free to exit.
			start, granted := make(chan struct{}), make(chan error, 1)
			go func() {
				for range start {
					granted <- tab.Acquire(bg, waiter, ent, locktable.Exclusive)
				}
			}()
			defer close(start)
			cycle := func() {
				if err := tab.Acquire(bg, holder, ent, locktable.Exclusive); err != nil {
					t.Fatal(err)
				}
				start <- struct{}{}
				for m.Waiting.Load() == 0 {
					// Sleep, not Gosched: AllocsPerRun runs on one P, where
					// a spinning goroutine leaves the network unpolled.
					time.Sleep(time.Microsecond)
				}
				if err := tab.Release(ent, holder.Key); err != nil {
					t.Fatal(err)
				}
				if err := <-granted; err != nil {
					t.Fatal(err)
				}
				if err := tab.Release(ent, waiter.Key); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				cycle() // warm the pools and the connection's buffers
			}
			allocs := testing.AllocsPerRun(300, cycle)
			t.Logf("%s contended cycle: %v allocs", row.name, allocs)
			limit := row.maxAllocs
			if raceEnabled {
				limit = row.raceAllocs
			}
			if allocs > limit {
				t.Fatalf("%s contended cycle = %v allocs, want <= %v", row.name, allocs, limit)
			}
		})
	}
}

// TestChainItemRecycling: a chain item that a cancel or a revoke fired is
// recycled with a fresh done channel. One connection parks an acquire and
// withdraws it through opCancel, parks another and loses it to a lease
// revoke, and then runs contended acquires, each parked behind a holder on
// the same connection and so drawn from its free list: every one must be
// granted. An item that kept its fired channel would enter the table
// already cancelled, and its acquire would fail.
func TestChainItemRecycling(t *testing.T) {
	ddb, ents := testDDB(t, 2)
	ent := ents[0]
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	c := dial(t, srv, locktable.Config{}, DialOptions{NoHeartbeat: true})
	var sc *srvConn
	srv.connsMu.RLock()
	for _, x := range srv.conns {
		sc = x
	}
	srv.connsMu.RUnlock()
	bg := context.Background()
	holder := locktable.InstKey{ID: 1}
	waiter := locktable.Instance{Key: locktable.InstKey{ID: 2}}
	got := make(chan error, 1)
	// park starts the waiter's acquire and returns once it is parked in
	// the hosted table.
	park := func(ctx context.Context, what string) {
		t.Helper()
		go func() { got <- c.Acquire(ctx, waiter, ent, locktable.Exclusive) }()
		deadline := time.Now().Add(5 * time.Second)
		for srv.TableMetrics().Waiting.Load() != 1 {
			select {
			case err := <-got:
				t.Fatalf("%s: the acquire returned %v before it parked", what, err)
			case <-time.After(100 * time.Microsecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the acquire never parked", what)
			}
		}
	}
	retired := func() {
		waitFor(t, func() bool {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return len(sc.chains) == 0
		})
	}

	// opCancel withdraws a parked acquire.
	acquire(t, c, holder.ID, ent)
	ctx, cancel := context.WithCancel(bg)
	park(ctx, "cancelled")
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parked acquire = %v, want context.Canceled", err)
	}
	retired()

	// A lease revoke withdraws the next one, and the holder's grant.
	park(bg, "revoked")
	srv.revoke(sc, false)
	if err := <-got; !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("revoked parked acquire = %v, want ErrLeaseExpired", err)
	}
	retired()
	if err := renewLease(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ent, holder); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("release of the revoked grant = %v, want ErrStaleFence", err)
	}

	const rounds = 50
	for i := 0; i < rounds; i++ {
		acquire(t, c, holder.ID, ent)
		park(bg, fmt.Sprintf("round %d", i))
		if err := c.Release(ent, holder); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatalf("round %d: parked acquire = %v, want a grant", i, err)
		}
		if err := c.Release(ent, waiter.Key); err != nil {
			t.Fatal(err)
		}
	}
}
