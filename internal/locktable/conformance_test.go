package locktable

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlock/internal/model"
	"distlock/internal/obs"
)

// The conformance suite: every Table semantics test runs against every
// backend — the sharded table at its default layout and at edge-case
// stripe counts (1 stripe ≡ a single global mutex; more stripes than
// entities leaves stripes empty), plus the registered wire backends. A
// backend passes iff its blocking semantics are indistinguishable from
// the others' through the interface — shared grants, writer exclusion,
// FIFO fairness and cancel-while-shared included, and
// under the race detector (CI's whole-tree race step).

type backendCase struct {
	name string
	make func(ddb *model.DDB, cfg Config) Table
}

func conformanceBackends() []backendCase {
	return append([]backendCase{
		{"sharded", NewSharded},
		{"sharded-1stripe", func(ddb *model.DDB, cfg Config) Table {
			cfg.Shards = 1
			return NewSharded(ddb, cfg)
		}},
		{"sharded-overstriped", func(ddb *model.DDB, cfg Config) Table {
			cfg.Shards = 1024
			return NewSharded(ddb, cfg)
		}},
		// The mutex-only shared path, which a database over 2¹⁸ entities
		// runs (maxFastPathEntities): semantics must match the CAS fast path.
		{"sharded-slowpath", newSlowPathTable},
	}, extraBackends...)
}

// forEachTable runs f once per backend over a fresh 4-entity, 2-site DDB.
// Every backend counts into cfg.Metrics, or into a fresh bundle per
// backend when cfg has none, so parked can read its queue.
func forEachTable(t *testing.T, cfg Config, f func(t *testing.T, tab Table, ents []model.EntityID)) {
	t.Helper()
	for _, bc := range conformanceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			ddb := model.NewDDB()
			var ents []model.EntityID
			for i := 0; i < 4; i++ {
				ents = append(ents, ddb.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%2)))
			}
			cfg := cfg
			if cfg.Metrics == nil {
				cfg.Metrics = obs.NewTableMetrics()
			}
			tab := bc.make(ddb, cfg)
			suiteMetrics.Store(tab, cfg.Metrics)
			t.Cleanup(func() {
				tab.Close()
				suiteMetrics.Delete(tab)
			})
			f(t, tab, ents)
		})
	}
}

// suiteMetrics maps each suite table to the bundle it counts into. The
// wire backends' hosting servers share that bundle (their registrations
// pass the same Config on), so a request parked on a server moves the
// same Waiting gauge as one parked in process.
var suiteMetrics sync.Map // Table -> *obs.TableMetrics

// parked returns how many requests wait in a suite table's queues.
func parked(tab Table) int64 {
	m, _ := suiteMetrics.Load(tab)
	return m.(*obs.TableMetrics).Waiting.Load()
}

func inst(id int) Instance {
	return Instance{Key: InstKey{ID: id}}
}

// mustAcquire acquires with a safety timeout so a broken backend fails the
// test instead of hanging it.
func mustAcquire(t *testing.T, tab Table, in Instance, e model.EntityID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tab.Acquire(ctx, in, e, Exclusive); err != nil {
		t.Fatalf("Acquire(%v, %v) = %v", in.Key, e, err)
	}
}

// waitForQueue blocks until n requests are parked on a suite table.
func waitForQueue(t *testing.T, tab Table, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if parked(tab) >= int64(n) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("queue never reached %d waiters (waiting: %d)", n, parked(tab))
}

func TestConformanceGrantRelease(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		a, b := inst(1), inst(2)
		for _, e := range ents {
			mustAcquire(t, tab, a, e)
		}
		// Duplicate acquire by the holder returns immediately.
		mustAcquire(t, tab, a, ents[0])
		// Releasing something not held is a no-op, not a steal.
		if err := tab.Release(ents[0], b.Key); err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), b, ents[0], Exclusive) }()
		select {
		case err := <-got:
			t.Fatalf("waiter returned %v while entity held", err)
		case <-time.After(20 * time.Millisecond):
		}
		if err := tab.Release(ents[0], a.Key); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatalf("waiter after release: %v", err)
		}
		// ReleaseAll (the abort path) frees everything still held in one
		// call; waiters on any of the entities get their grants.
		if err := tab.Release(ents[0], b.Key); err != nil {
			t.Fatal(err)
		}
		mustAcquire(t, tab, a, ents[0])
		grant := make(chan error, 1)
		go func() { grant <- tab.Acquire(context.Background(), b, ents[1], Exclusive) }()
		waitForQueue(t, tab, 1)
		if err := tab.ReleaseAll(ents, a.Key); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-grant:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ReleaseAll did not grant to the waiter")
		}
		if err := tab.Release(ents[1], b.Key); err != nil {
			t.Fatal(err)
		}
	})
}

// grantOrder parks the given instance ids (in order) behind holder on e,
// then releases the chain and returns the observed grant order.
func grantOrder(t *testing.T, tab Table, e model.EntityID, holder Instance, ids []int) []int {
	t.Helper()
	mustAcquire(t, tab, holder, e)
	granted := make(chan int, len(ids))
	for i, id := range ids {
		id := id
		go func() {
			if err := tab.Acquire(context.Background(), inst(id), e, Exclusive); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			granted <- id
		}()
		waitForQueue(t, tab, i+1) // fix arrival order before the next enqueue
	}
	if err := tab.Release(e, holder.Key); err != nil {
		t.Fatal(err)
	}
	var order []int
	for range ids {
		select {
		case id := <-granted:
			order = append(order, id)
			if err := tab.Release(e, InstKey{ID: id}); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("grant chain stalled after %v", order)
		}
	}
	return order
}

// TestConformanceFIFO: per-entity grant order is arrival order, even when
// instances with higher IDs arrive first.
func TestConformanceFIFO(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		order := grantOrder(t, tab, ents[0], inst(1), []int{9, 7, 8, 5, 6})
		want := []int{9, 7, 8, 5, 6}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("grant order %v, want FIFO %v", order, want)
			}
		}
	})
}

// TestConformanceWithdrawPending: a cancelled wait is withdrawn before
// Acquire returns, and the withdrawn request never absorbs a grant.
func TestConformanceWithdrawPending(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder, waiter, third := inst(1), inst(2), inst(3)
		mustAcquire(t, tab, holder, e)
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(ctx, waiter, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		cancel()
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Acquire = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled Acquire did not return")
		}
		if n := parked(tab); n != 0 {
			t.Fatalf("withdrawn request still queued: %d waiting", n)
		}
		grant := make(chan error, 1)
		go func() { grant <- tab.Acquire(context.Background(), third, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		if err := tab.Release(e, holder.Key); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-grant:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("entity lost after a withdrawal")
		}
	})
}

// TestConformanceWithdrawGrantRace: cancellation racing a grant never
// leaks the entity — whichever way the race goes, a fresh probe can
// acquire it afterwards.
func TestConformanceWithdrawGrantRace(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		for i := 0; i < 200; i++ {
			holder, waiter, probe := inst(3*i+1), inst(3*i+2), inst(3*i+3)
			mustAcquire(t, tab, holder, e)
			ctx, cancel := context.WithCancel(context.Background())
			got := make(chan error, 1)
			go func() { got <- tab.Acquire(ctx, waiter, e, Exclusive) }()
			go cancel()
			if err := tab.Release(e, holder.Key); err != nil {
				t.Fatal(err)
			}
			switch err := <-got; {
			case err == nil:
				if err := tab.Release(e, waiter.Key); err != nil {
					t.Fatal(err)
				}
			case errors.Is(err, context.Canceled):
				// Withdrawn (or grant released): nothing held.
			default:
				t.Fatalf("iteration %d: %v", i, err)
			}
			pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := tab.Acquire(pctx, probe, e, Exclusive); err != nil {
				t.Fatalf("iteration %d: entity leaked: %v", i, err)
			}
			pcancel()
			if err := tab.Release(e, probe.Key); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestConformanceWaitingGauge: the Waiting gauge counts a parked request
// and drops back to zero when it leaves the queue, withdrawn by a cancel
// or granted by a release.
func TestConformanceWaitingGauge(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder := inst(1)
		mustAcquire(t, tab, holder, e)
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(ctx, inst(2), e, Exclusive) }()
		waitForQueue(t, tab, 1)
		if n := parked(tab); n != 1 {
			t.Fatalf("one parked writer: %d waiting", n)
		}
		cancel()
		if err := <-got; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Acquire = %v", err)
		}
		if n := parked(tab); n != 0 {
			t.Fatalf("after the cancel: %d waiting", n)
		}
		go func() { got <- tab.Acquire(context.Background(), inst(3), e, Exclusive) }()
		waitForQueue(t, tab, 1)
		if err := tab.Release(e, holder.Key); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		if n := parked(tab); n != 0 {
			t.Fatalf("after the grant: %d waiting", n)
		}
		if err := tab.Release(e, InstKey{ID: 3}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceClose: Close wakes parked Acquires with ErrStopped and
// poisons subsequent operations; it is idempotent.
func TestConformanceClose(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder := inst(1)
		mustAcquire(t, tab, holder, e)
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), inst(2), e, Exclusive) }()
		waitForQueue(t, tab, 1)
		tab.Close()
		select {
		case err := <-got:
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("parked Acquire on Close = %v, want ErrStopped", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not wake the parked Acquire")
		}
		if err := tab.Acquire(context.Background(), inst(3), ents[1], Exclusive); !errors.Is(err, ErrStopped) {
			t.Fatalf("Acquire after Close = %v, want ErrStopped", err)
		}
		if err := tab.Release(e, holder.Key); !errors.Is(err, ErrStopped) {
			t.Fatalf("Release after Close = %v, want ErrStopped", err)
		}
		tab.Close() // idempotent
	})
}

// TestConformanceMutualExclusion is the -race workhorse: concurrent
// acquire/release traffic over all entities, with a per-entity occupancy
// counter asserting at most one holder at any instant.
func TestConformanceMutualExclusion(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		const goroutines = 16
		const iters = 150
		occupancy := make([]atomic.Int32, len(ents))
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(g + 1)
				for i := 0; i < iters; i++ {
					e := ents[(g*7+i*13)%len(ents)]
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					if err := tab.Acquire(ctx, in, e, Exclusive); err != nil {
						cancel()
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					cancel()
					if n := occupancy[int(e)].Add(1); n != 1 {
						t.Errorf("entity %d held by %d instances", e, n)
					}
					occupancy[int(e)].Add(-1)
					if err := tab.Release(e, in.Key); err != nil {
						t.Errorf("goroutine %d: release: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// mustAcquireMode is mustAcquire with an explicit lock mode.
func mustAcquireMode(t *testing.T, tab Table, in Instance, e model.EntityID, m Mode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tab.Acquire(ctx, in, e, m); err != nil {
		t.Fatalf("Acquire(%v, %v, %v) = %v", in.Key, e, m, err)
	}
}

// TestConformanceSharedGrantsOverlap: any number of readers hold one
// entity concurrently (each Acquire returns while the others still hold —
// that IS the overlap), a writer is excluded until the last reader
// leaves, and after the writer releases the readers overlap again.
func TestConformanceSharedGrantsOverlap(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		readers := []Instance{inst(1), inst(2), inst(3)}
		for _, r := range readers {
			mustAcquireMode(t, tab, r, e, Shared) // overlaps with prior readers
		}
		writer := inst(9)
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), writer, e, Exclusive) }()
		select {
		case err := <-got:
			t.Fatalf("writer granted (%v) while 3 readers hold", err)
		case <-time.After(20 * time.Millisecond):
		}
		// Releasing all but one reader keeps the writer excluded.
		for _, r := range readers[:2] {
			if err := tab.Release(e, r.Key); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-got:
			t.Fatalf("writer granted (%v) while a reader still holds", err)
		case <-time.After(20 * time.Millisecond):
		}
		if err := tab.Release(e, readers[2].Key); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("writer never granted after the last reader left")
		}
		if err := tab.Release(e, writer.Key); err != nil {
			t.Fatal(err)
		}
		mustAcquireMode(t, tab, readers[0], e, Shared)
		mustAcquireMode(t, tab, readers[1], e, Shared)
		if err := tab.ReleaseAll([]model.EntityID{e}, readers[0].Key); err != nil {
			t.Fatal(err)
		}
		if err := tab.Release(e, readers[1].Key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceWriterBlocksLaterReaders is the FIFO fairness case: a
// reader arriving AFTER a queued writer parks behind it instead of
// slipping past on compatibility (which would starve the writer under a
// reader crowd). Grant order after the holder leaves: writer first, then
// the late reader.
func TestConformanceWriterBlocksLaterReaders(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder, writer, late := inst(1), inst(2), inst(3)
		mustAcquireMode(t, tab, holder, e, Shared)
		wGot := make(chan error, 1)
		go func() { wGot <- tab.Acquire(context.Background(), writer, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		rGot := make(chan error, 1)
		go func() { rGot <- tab.Acquire(context.Background(), late, e, Shared) }()
		waitForQueue(t, tab, 2)
		// The late reader is compatible with the shared holder but must NOT
		// be granted past the waiting writer.
		select {
		case err := <-rGot:
			t.Fatalf("late reader granted (%v) past a waiting writer", err)
		case <-time.After(20 * time.Millisecond):
		}
		if err := tab.Release(e, holder.Key); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-wGot:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("writer not granted after the reader left")
		}
		select {
		case err := <-rGot:
			t.Fatalf("late reader granted (%v) while the writer holds", err)
		case <-time.After(20 * time.Millisecond):
		}
		if err := tab.Release(e, writer.Key); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-rGot:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("late reader never granted")
		}
		if err := tab.Release(e, late.Key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceReaderWaveAfterWriter: consecutive readers at the queue
// head are granted as ONE wave when the writer ahead of them releases.
func TestConformanceReaderWaveAfterWriter(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		writer := inst(1)
		mustAcquireMode(t, tab, writer, e, Exclusive)
		got := make(chan error, 3)
		for i := 0; i < 3; i++ {
			id := i + 2
			go func() { got <- tab.Acquire(context.Background(), inst(id), e, Shared) }()
			waitForQueue(t, tab, i+1)
		}
		if err := tab.Release(e, writer.Key); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			select {
			case err := <-got:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of 3 readers granted after the writer left", i)
			}
		}
		for id := 2; id <= 4; id++ {
			if err := tab.Release(e, InstKey{ID: id}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestConformanceCancelWhileShared: cancelling the writer parked between
// a shared holder and a late reader must wake the reader (the queue
// removal re-runs the grant wave); cancelling a parked reader leaves
// everyone else untouched.
func TestConformanceCancelWhileShared(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder, writer, late := inst(1), inst(2), inst(3)
		mustAcquireMode(t, tab, holder, e, Shared)
		wctx, wcancel := context.WithCancel(context.Background())
		wGot := make(chan error, 1)
		go func() { wGot <- tab.Acquire(wctx, writer, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		rGot := make(chan error, 1)
		go func() { rGot <- tab.Acquire(context.Background(), late, e, Shared) }()
		waitForQueue(t, tab, 2)
		wcancel()
		select {
		case err := <-wGot:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled writer = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled writer did not return")
		}
		// The late reader was only blocked by the withdrawn writer: it must
		// be granted now, alongside the original shared holder.
		select {
		case err := <-rGot:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("reader not granted after the blocking writer withdrew")
		}
		// Cancel a parked reader: holder still exclusive-blocked state is
		// untouched and nothing leaks.
		w2 := inst(4)
		w2Got := make(chan error, 1)
		go func() { w2Got <- tab.Acquire(context.Background(), w2, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		rctx, rcancel := context.WithCancel(context.Background())
		r2Got := make(chan error, 1)
		go func() { r2Got <- tab.Acquire(rctx, inst(5), e, Shared) }()
		waitForQueue(t, tab, 2)
		rcancel()
		select {
		case err := <-r2Got:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled reader = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled reader did not return")
		}
		if err := tab.Release(e, holder.Key); err != nil {
			t.Fatal(err)
		}
		if err := tab.Release(e, late.Key); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-w2Got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("writer not granted after the readers left")
		}
		if err := tab.Release(e, w2.Key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceModeMutualExclusion is the -race workhorse for modes:
// concurrent reader/writer traffic over all entities with per-entity
// occupancy counters asserting the shared/exclusive invariant — never a
// writer alongside anyone, any number of readers together — and that
// reader overlap actually happens (the whole point of shared mode).
func TestConformanceModeMutualExclusion(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		const goroutines = 16
		const iters = 120
		readers := make([]atomic.Int32, len(ents))
		writers := make([]atomic.Int32, len(ents))
		var overlapped atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(g + 1)
				for i := 0; i < iters; i++ {
					e := ents[(g*7+i*13)%len(ents)]
					mode := Shared
					if (g+i)%4 == 0 { // 25% writes
						mode = Exclusive
					}
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					if err := tab.Acquire(ctx, in, e, mode); err != nil {
						cancel()
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					cancel()
					if mode == Exclusive {
						if w := writers[int(e)].Add(1); w != 1 {
							t.Errorf("entity %d held by %d writers", e, w)
						}
						if r := readers[int(e)].Load(); r != 0 {
							t.Errorf("entity %d held by a writer and %d readers", e, r)
						}
						writers[int(e)].Add(-1)
					} else {
						if w := writers[int(e)].Load(); w != 0 {
							t.Errorf("entity %d held by a reader and %d writers", e, w)
						}
						if r := readers[int(e)].Add(1); r > 1 {
							overlapped.Store(true)
						}
						readers[int(e)].Add(-1)
					}
					if err := tab.Release(e, in.Key); err != nil {
						t.Errorf("goroutine %d: release: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if !overlapped.Load() {
			t.Log("note: no reader overlap observed (scheduling-dependent)")
		}
	})
}

// TestConformanceHoldingReaderPassesQueuedWriter: a shared request whose
// instance holds another lock (Instance.Holding) is granted past a queued
// writer whenever the holders admit it — on arrival, and when a grant wave
// stops at a blocked head writer — while the writer keeps its place ahead
// of every reader that holds nothing (TestConformanceWriterBlocksLaterReaders).
// That is the wait relation certification assumes: parking a holding
// reader behind a writer adds a waits-for edge the model lacks, and a
// certified mix can close a cycle through it.
func TestConformanceHoldingReaderPassesQueuedWriter(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		expect := func(what string, got <-chan error, granted bool) {
			t.Helper()
			if !granted {
				select {
				case err := <-got:
					t.Fatalf("%s returned (%v) while it should wait", what, err)
				case <-time.After(20 * time.Millisecond):
				}
				return
			}
			select {
			case err := <-got:
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s never granted", what)
			}
		}
		acquire := func(in Instance, e model.EntityID, m Mode) <-chan error {
			got := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				got <- tab.Acquire(ctx, in, e, m)
			}()
			return got
		}
		release := func(e model.EntityID, ids ...int) {
			t.Helper()
			for _, id := range ids {
				if err := tab.Release(e, InstKey{ID: id}); err != nil {
					t.Fatal(err)
				}
			}
		}

		// On arrival: a shared holder, a queued writer, then a holding reader.
		e, other := ents[0], ents[1]
		mustAcquireMode(t, tab, inst(1), e, Shared)
		wGot := acquire(inst(2), e, Exclusive)
		waitForQueue(t, tab, 1)
		passer := Instance{Key: InstKey{ID: 3}, Holding: true}
		mustAcquireMode(t, tab, passer, other, Exclusive)
		expect("holding reader behind a queued writer", acquire(passer, e, Shared), true)
		expect("queued writer", wGot, false)
		release(e, 1, 3)
		expect("writer after the readers left", wGot, true)
		release(e, 2)
		release(other, 3)

		// In the grant wave: an exclusive holder, then a reader that holds
		// nothing, a writer and a holding reader queue behind it. The
		// holder's release grants the head reader and stops at the writer;
		// the holding reader behind the writer is granted too.
		e = ents[2]
		mustAcquireMode(t, tab, inst(4), e, Exclusive)
		rGot := acquire(inst(5), e, Shared)
		waitForQueue(t, tab, 1)
		wGot = acquire(inst(6), e, Exclusive)
		waitForQueue(t, tab, 2)
		passer = Instance{Key: InstKey{ID: 7}, Holding: true}
		mustAcquireMode(t, tab, passer, other, Exclusive)
		pGot := acquire(passer, e, Shared)
		waitForQueue(t, tab, 3)
		release(e, 4)
		expect("head reader", rGot, true)
		expect("holding reader behind the blocked writer", pGot, true)
		expect("writer behind two readers", wGot, false)
		release(e, 5, 7)
		expect("writer after the readers left", wGot, true)
		release(e, 6)
		release(other, 7)
	})
}
