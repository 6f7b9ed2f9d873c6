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
)

// The conformance suite: every Table semantics test runs against every
// backend — the sharded table at its default layout and at edge-case
// stripe counts (1 stripe ≡ a single global mutex; more stripes than
// entities leaves stripes empty), plus the registered wire backends. A
// backend passes iff its blocking semantics are indistinguishable from
// the others' through the interface — shared grants, writer exclusion,
// FIFO fairness, wound-while-shared and cancel-while-shared included, and
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
		{"sharded-slowpath", func(ddb *model.DDB, cfg Config) Table {
			// The mutex-only shared path embedders opt into (netlock server,
			// deadlock detectors): semantics must match the CAS fast path.
			cfg.DisableSharedFastPath = true
			return NewSharded(ddb, cfg)
		}},
	}, extraBackends...)
}

// forEachTable runs f once per backend over a fresh 4-entity, 2-site DDB.
func forEachTable(t *testing.T, cfg Config, f func(t *testing.T, tab Table, ents []model.EntityID)) {
	t.Helper()
	for _, bc := range conformanceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			ddb := model.NewDDB()
			var ents []model.EntityID
			for i := 0; i < 4; i++ {
				ents = append(ents, ddb.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%2)))
			}
			tab := bc.make(ddb, cfg)
			t.Cleanup(tab.Close)
			f(t, tab, ents)
		})
	}
}

func inst(id int) Instance {
	return Instance{Key: InstKey{ID: id}, Prio: int64(id)}
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

// waitForQueue blocks until the table's snapshot shows n wait edges.
func waitForQueue(t *testing.T, tab Table, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(tab.Snapshot()) >= n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("queue never reached %d waiters (snapshot: %v)", n, tab.Snapshot())
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

// TestConformanceFIFO: per-entity grant order is arrival order when
// wound-wait is off, even when younger instances arrive first.
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

// TestConformanceOldestFirst: under wound-wait a released entity goes to
// the oldest waiter, preserving holder-older-than-waiters.
func TestConformanceOldestFirst(t *testing.T) {
	forEachTable(t, Config{WoundWait: true}, func(t *testing.T, tab Table, ents []model.EntityID) {
		// Holder 1 is oldest, so no waiter wounds it; OnWound is nil anyway.
		order := grantOrder(t, tab, ents[0], inst(1), []int{9, 7, 8, 5, 6})
		want := []int{5, 6, 7, 8, 9}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("grant order %v, want oldest-first %v", order, want)
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
		if edges := tab.Snapshot(); len(edges) != 0 {
			t.Fatalf("withdrawn request still queued: %v", edges)
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

// TestConformanceWithdrawGranted: Withdraw of a granted lock reports true
// and releases it.
func TestConformanceWithdrawGranted(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		a, b := inst(1), inst(2)
		mustAcquire(t, tab, a, ents[0])
		if !tab.Withdraw(ents[0], a.Key) {
			t.Fatal("Withdraw of a granted lock reported false")
		}
		mustAcquire(t, tab, b, ents[0]) // released: immediately grantable
		if tab.Withdraw(ents[1], a.Key) {
			t.Fatal("Withdraw of nothing reported a grant")
		}
		if err := tab.Release(ents[0], b.Key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceWound: Wound removes the victim's pending requests and
// wakes the parked Acquire with ErrWounded; grants are untouched.
func TestConformanceWound(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder, victim := inst(1), inst(7)
		mustAcquire(t, tab, holder, e)
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), victim, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		// A stale wound for a dead epoch must not touch the live request.
		tab.Wound(InstKey{ID: victim.Key.ID, Epoch: victim.Key.Epoch - 1})
		time.Sleep(2 * time.Millisecond)
		if edges := tab.Snapshot(); len(edges) != 1 {
			t.Fatalf("stale-epoch wound removed a live request: %v", edges)
		}
		tab.Wound(victim.Key)
		select {
		case err := <-got:
			if !errors.Is(err, ErrWounded) {
				t.Fatalf("wounded Acquire = %v, want ErrWounded", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wound did not wake the parked Acquire")
		}
		if edges := tab.Snapshot(); len(edges) != 0 {
			t.Fatalf("wounded request still queued: %v", edges)
		}
		// The holder's grant survived its own non-wound.
		if err := tab.Release(e, holder.Key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceDoomed: a doom signal interrupts a parked Acquire with
// ErrWounded, with the request withdrawn.
func TestConformanceDoomed(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder := inst(1)
		mustAcquire(t, tab, holder, e)
		doom := make(chan struct{}, 1)
		victim := Instance{Key: InstKey{ID: 7}, Prio: 7, Doomed: doom}
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), victim, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		doom <- struct{}{}
		select {
		case err := <-got:
			if !errors.Is(err, ErrWounded) {
				t.Fatalf("doomed Acquire = %v, want ErrWounded", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("doom signal did not wake the parked Acquire")
		}
		if edges := tab.Snapshot(); len(edges) != 0 {
			t.Fatalf("doomed request still queued: %v", edges)
		}
	})
}

// TestConformanceWoundCallback: under wound-wait, an older requester
// queuing behind a younger holder fires OnWound with the holder's id.
func TestConformanceWoundCallback(t *testing.T) {
	var wounded atomic.Int64
	cfg := Config{WoundWait: true, OnWound: func(id int) { wounded.Store(int64(id)) }}
	forEachTable(t, cfg, func(t *testing.T, tab Table, ents []model.EntityID) {
		wounded.Store(-1)
		e := ents[0]
		young, old := inst(9), inst(2)
		mustAcquire(t, tab, young, e)
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), old, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		deadline := time.Now().Add(5 * time.Second)
		for wounded.Load() != int64(young.Key.ID) && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
		if got := wounded.Load(); got != int64(young.Key.ID) {
			t.Fatalf("OnWound got holder %d, want %d", got, young.Key.ID)
		}
		// The wounded holder releases (as its abort would), the old
		// requester gets the entity.
		if err := tab.Release(e, young.Key); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		if err := tab.Release(e, old.Key); err != nil {
			t.Fatal(err)
		}
		// A younger requester behind an older holder must NOT wound.
		wounded.Store(-1)
		mustAcquire(t, tab, old, e)
		go func() { got <- tab.Acquire(context.Background(), young, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		time.Sleep(5 * time.Millisecond)
		if got := wounded.Load(); got != -1 {
			t.Fatalf("younger requester wounded older holder %d", got)
		}
		if err := tab.Release(e, old.Key); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceSnapshot: wait edges carry the right identities and
// priorities.
func TestConformanceSnapshot(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder := inst(1)
		mustAcquire(t, tab, holder, e)
		for _, id := range []int{5, 6} {
			id := id
			go func() { tab.Acquire(context.Background(), inst(id), e, Exclusive) }()
		}
		waitForQueue(t, tab, 2)
		edges := tab.Snapshot()
		if len(edges) != 2 {
			t.Fatalf("snapshot = %v, want 2 edges", edges)
		}
		seen := map[int]bool{}
		for _, ed := range edges {
			if ed.Holder != holder.Key || ed.HolderPrio != holder.Prio {
				t.Fatalf("edge holder = %+v", ed)
			}
			if ed.WaiterPrio != int64(ed.Waiter.ID) {
				t.Fatalf("edge waiter prio mismatch: %+v", ed)
			}
			seen[ed.Waiter.ID] = true
		}
		if !seen[5] || !seen[6] {
			t.Fatalf("waiters lost: %v", edges)
		}
		if err := tab.Release(e, holder.Key); err != nil {
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

// TestConformanceGrantLog: with Trace on, GrantLog records per-entity
// grant order.
func TestConformanceGrantLog(t *testing.T) {
	forEachTable(t, Config{Trace: true}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		for id := 1; id <= 5; id++ {
			in := inst(id)
			// Odd instances lock shared, even exclusive: the log must
			// record each grant's MODE faithfully (the remote backend ships
			// it over the wire, so a dropped mode byte shows up here).
			mode := Shared
			if id%2 == 0 {
				mode = Exclusive
			}
			mustAcquireMode(t, tab, in, e, mode)
			if err := tab.Release(e, in.Key); err != nil {
				t.Fatal(err)
			}
		}
		tab.Close()
		var got []int
		for _, ev := range tab.GrantLog() {
			if ev.Entity != e {
				t.Fatalf("grant event for wrong entity: %+v", ev)
			}
			wantMode := Shared
			if ev.Inst%2 == 0 {
				wantMode = Exclusive
			}
			if ev.Mode != wantMode {
				t.Fatalf("grant event %+v records mode %v, want %v", ev, ev.Mode, wantMode)
			}
			got = append(got, ev.Inst)
		}
		for i, id := range []int{1, 2, 3, 4, 5} {
			if i >= len(got) || got[i] != id {
				t.Fatalf("grant log %v, want [1 2 3 4 5]", got)
			}
		}
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

// TestConformanceWoundWhileShared: under wound-wait an older writer
// arriving at younger shared holders wounds EVERY conflicting holder; an
// older reader arriving at a shared crowd wounds nobody (R/R does not
// conflict); and Wound on a parked shared waiter wakes it with
// ErrWounded while re-running the grant wave for whoever it unblocked.
func TestConformanceWoundWhileShared(t *testing.T) {
	var wounded sync.Map // holder id -> true
	cfg := Config{WoundWait: true, OnWound: func(id int) { wounded.Store(id, true) }}
	forEachTable(t, cfg, func(t *testing.T, tab Table, ents []model.EntityID) {
		wounded.Clear() // fresh slate per backend subtest
		e := ents[0]
		r1, r2 := inst(7), inst(8)
		mustAcquireMode(t, tab, r1, e, Shared)
		mustAcquireMode(t, tab, r2, e, Shared)
		// An older READER joining the crowd wounds nobody: it is granted
		// outright (no queue, compatible) and conflicts with no one.
		mustAcquireMode(t, tab, inst(2), e, Shared)
		if _, ok := wounded.Load(7); ok {
			t.Fatal("older reader wounded a reader")
		}
		if err := tab.Release(e, InstKey{ID: 2}); err != nil {
			t.Fatal(err)
		}
		// An older WRITER queuing behind the crowd wounds both readers.
		old := inst(3)
		got := make(chan error, 1)
		go func() { got <- tab.Acquire(context.Background(), old, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			_, w7 := wounded.Load(7)
			_, w8 := wounded.Load(8)
			if w7 && w8 {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		if _, ok := wounded.Load(7); !ok {
			t.Fatal("older writer did not wound shared holder 7")
		}
		if _, ok := wounded.Load(8); !ok {
			t.Fatal("older writer did not wound shared holder 8")
		}
		// The wounded readers release (as their aborts would); the writer
		// gets the entity.
		if err := tab.Release(e, r1.Key); err != nil {
			t.Fatal(err)
		}
		if err := tab.Release(e, r2.Key); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		// Wound a parked SHARED waiter: it wakes with ErrWounded and is
		// gone from the queue.
		victim := Instance{Key: InstKey{ID: 9}, Prio: 9}
		vGot := make(chan error, 1)
		go func() { vGot <- tab.Acquire(context.Background(), victim, e, Shared) }()
		waitForQueue(t, tab, 1)
		tab.Wound(victim.Key)
		select {
		case err := <-vGot:
			if !errors.Is(err, ErrWounded) {
				t.Fatalf("wounded shared waiter = %v, want ErrWounded", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wound did not wake the parked shared waiter")
		}
		if edges := tab.Snapshot(); len(edges) != 0 {
			t.Fatalf("wounded shared request still queued: %v", edges)
		}
		if err := tab.Release(e, old.Key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceWoundedWriterUnblocksReaders: Wound removing a queued
// writer re-runs the grant wave, so the readers that were parked behind
// it join the current shared holders immediately.
func TestConformanceWoundedWriterUnblocksReaders(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		e := ents[0]
		holder := inst(1)
		mustAcquireMode(t, tab, holder, e, Shared)
		writer := Instance{Key: InstKey{ID: 5}, Prio: 5}
		wGot := make(chan error, 1)
		go func() { wGot <- tab.Acquire(context.Background(), writer, e, Exclusive) }()
		waitForQueue(t, tab, 1)
		rGot := make(chan error, 1)
		go func() { rGot <- tab.Acquire(context.Background(), inst(6), e, Shared) }()
		waitForQueue(t, tab, 2)
		tab.Wound(writer.Key)
		select {
		case err := <-wGot:
			if !errors.Is(err, ErrWounded) {
				t.Fatalf("wounded writer = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wound did not wake the parked writer")
		}
		select {
		case err := <-rGot:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("reader not granted after the blocking writer was wounded")
		}
		if err := tab.Release(e, holder.Key); err != nil {
			t.Fatal(err)
		}
		if err := tab.Release(e, InstKey{ID: 6}); err != nil {
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
