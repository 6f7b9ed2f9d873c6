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

// TestConformanceContention is the contention conformance case: a reader
// crowd churning shared Acquire/Release on one hot entity while writers
// periodically take it exclusively. Every backend must uphold mutual
// exclusion through the churn — for the sharded backend this hammers the
// fast-path/slow-mode transitions (CAS grants fencing out and draining
// around each writer), which no steady-state test exercises.
// conformanceBackends pins stripe counts 1 (a single global mutex), the
// GOMAXPROCS-resolved default and a deliberately overstriped 1024, so the
// invariant checker watches the reader count / writer bit across the
// whole matrix — under -race in CI's whole-tree step.
func TestConformanceContention(t *testing.T) {
	forEachTable(t, Config{}, func(t *testing.T, tab Table, ents []model.EntityID) {
		hot := ents[0]
		iters := 400
		if testing.Short() {
			iters = 80
		}
		var readers atomic.Int64
		var writerHeld atomic.Bool
		violations := make(chan string, 64)
		report := func(msg string) {
			select {
			case violations <- msg:
			default:
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(100 + g)
				for i := 0; i < iters; i++ {
					if err := tab.Acquire(ctx, in, hot, Shared); err != nil {
						report(fmt.Sprintf("reader %d: %v", g, err))
						return
					}
					readers.Add(1)
					if writerHeld.Load() {
						report("shared grant overlapped an exclusive holder")
					}
					readers.Add(-1)
					if err := tab.Release(hot, in.Key); err != nil {
						report(fmt.Sprintf("reader %d release: %v", g, err))
						return
					}
				}
			}(g)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(200 + g)
				for i := 0; i < iters/4; i++ {
					if err := tab.Acquire(ctx, in, hot, Exclusive); err != nil {
						report(fmt.Sprintf("writer %d: %v", g, err))
						return
					}
					if !writerHeld.CompareAndSwap(false, true) {
						report("two concurrent exclusive holders")
					}
					if n := readers.Load(); n != 0 {
						report(fmt.Sprintf("exclusive grant with %d shared holders live", n))
					}
					writerHeld.Store(false)
					if err := tab.Release(hot, in.Key); err != nil {
						report(fmt.Sprintf("writer %d release: %v", g, err))
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(violations)
		for msg := range violations {
			t.Error(msg)
		}
	})
}

// TestReleaseAllAggregatesErrors: every failed release must surface in
// ReleaseAll's error, not just the last one (the abort path must not
// silently drop the first failure when a later entity also fails).
func TestReleaseAllAggregatesErrors(t *testing.T) {
	for _, bc := range []backendCase{{"sharded", NewSharded}} {
		t.Run(bc.name, func(t *testing.T) {
			ddb := model.NewDDB()
			e0 := ddb.MustEntity("e0", "s0")
			e1 := ddb.MustEntity("e1", "s0")
			tab := bc.make(ddb, Config{})
			tab.Close()
			err := tab.ReleaseAll([]model.EntityID{e0, e1}, InstKey{ID: 1})
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("ReleaseAll on a closed table = %v, want ErrStopped", err)
			}
			joined, ok := err.(interface{ Unwrap() []error })
			if !ok {
				t.Fatalf("ReleaseAll error %v (%T) is not a joined error", err, err)
			}
			if n := len(joined.Unwrap()); n != 2 {
				t.Fatalf("ReleaseAll surfaced %d errors, want both failing releases (2): %v", n, err)
			}
		})
	}
}

// TestStripeIndexBalance: stripe placement must spread STRIDED entity-ID
// sets (callers commonly touch every k-th entity) instead of folding them
// onto the stripes sharing a factor with the stride, which is exactly what
// the former plain `ent % shards` did — a stride of 64 over 64 stripes
// lands every entity on one stripe.
func TestStripeIndexBalance(t *testing.T) {
	const shards = 64
	const n = 4096
	for _, stride := range []int{1, 2, 8, 16, 64, 128, 1000} {
		counts := make([]int, shards)
		for i := 0; i < n; i++ {
			idx := stripeIndex(model.EntityID(i*stride), shards)
			if idx < 0 || idx >= shards {
				t.Fatalf("stride %d: stripeIndex out of range: %d", stride, idx)
			}
			counts[idx]++
		}
		mean := n / shards
		maxC, nonEmpty := 0, 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
			if c > 0 {
				nonEmpty++
			}
		}
		if maxC > 2*mean {
			t.Errorf("stride %d: hottest stripe has %d of %d entities (mean %d) — placement collapses on this stride", stride, maxC, n, mean)
		}
		if nonEmpty < shards/2 {
			t.Errorf("stride %d: only %d of %d stripes used", stride, nonEmpty, shards)
		}
	}
}

// TestReaderCrowdFastPathBeatsSlowPath is the CI guard for the hot-entity
// convoy: a crowd of readers on one hot entity must run at least as fast
// on the table's CAS shared path as the same crowd through the table's
// own mutex-path shared grant (grantLocked and releaseLocked under the
// entity's stripe mutex), locked once to acquire and once to release.
// Every one of the table's Acquires must be a fast-path hit. Kept short —
// a few hundred milliseconds per run — and asserted with a margin only in
// the direction that matters: if the fast path regresses into a convoy,
// its number collapses to (or below) the mutex path's and this fails
// loudly. The comparison holds in -race builds too: the detector
// instruments both crowds' atomics and mutexes alike.
func TestReaderCrowdFastPathBeatsSlowPath(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	const crowd = 8
	run := func(op func(in Instance) error) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < crowd; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(g + 1)
				for i := 0; i < iters; i++ {
					if err := op(in); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(crowd*iters) / time.Since(start).Seconds()
	}
	ddb := model.NewDDB()
	hot := ddb.MustEntity("hot", "s0")
	m := obs.NewTableMetrics()
	tab := NewSharded(ddb, Config{Metrics: m})
	defer tab.Close()
	ctx := context.Background()
	fastOps := run(func(in Instance) error {
		if err := tab.Acquire(ctx, in, hot, Shared); err != nil {
			return err
		}
		return tab.Release(hot, in.Key)
	})
	// The reference is the table's own mutex-path shared grant on the same
	// entity: the stripe mutex guarding the entity's map entry, taken once
	// to grant and once to release.
	sh := tab.(*shardedTable)
	refOps := run(func(in Instance) error {
		s := sh.lockStripe(hot)
		sh.grantLocked(hot, s.lockState(hot), in.Key, Shared)
		s.mu.Unlock()
		s = sh.lockStripe(hot)
		sh.releaseLocked(hot, s.lockState(hot), in.Key)
		s.mu.Unlock()
		return nil
	})
	if hits := m.Snapshot().FastPathHits; hits != crowd*int64(iters) {
		t.Fatalf("%d fast-path hits, want one per shared acquire (%d)", hits, crowd*iters)
	}
	t.Logf("reader crowd: fast path %.0f ops/s, stripe-mutex reference %.0f ops/s (%.1fx)",
		fastOps, refOps, fastOps/refOps)
	if fastOps < refOps {
		t.Fatalf("reader-crowd throughput on the fast path %.0f ops/s below the stripe-mutex reference's %.0f ops/s — the hot-entity convoy is back",
			fastOps, refOps)
	}
}

// TestRecycledWaiterHoldsNoToken: a cancel that loses its race to a grant
// leaves the grant's token in the waiter's channel, and Acquire drains it
// before the waiter goes back to the pool, so the next request that parks
// on that waiter really waits. The race is forced: the test holds the
// entity's stripe mutex while it cancels the parked request and releases
// the holder, so the grant lands before cancelWait can run. One goroutine
// parks both requests of a round, where the pool most likely hands the
// first one's waiter to the second.
func TestRecycledWaiterHoldsNoToken(t *testing.T) {
	ddb := model.NewDDB()
	ent := ddb.MustEntity("x", "s0")
	tab := NewSharded(ddb, Config{}).(*shardedTable)
	defer tab.Close()
	bg := context.Background()
	holder := Instance{Key: InstKey{ID: 1}}
	racer, next := InstKey{ID: 2}, InstKey{ID: 3}
	type park struct {
		ctx context.Context
		key InstKey
	}
	parks, errs := make(chan park), make(chan error, 1) // one reply per park
	go func() {
		for p := range parks {
			errs <- tab.Acquire(p.ctx, Instance{Key: p.key}, ent, Exclusive)
		}
	}()
	defer close(parks)
	parked := func() {
		deadline := time.Now().Add(5 * time.Second)
		for tab.m.Waiting.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("the request never parked")
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	raced := 0
	for round := 0; round < 50; round++ {
		must(tab.Acquire(bg, holder, ent, Exclusive))
		ctx, cancel := context.WithCancel(bg)
		parks <- park{ctx, racer}
		parked()
		s := tab.lockStripe(ent)
		cancel()
		tab.releaseLocked(ent, s.lockState(ent), holder.Key) // grants the racer
		s.mu.Unlock()
		if err := <-errs; err == nil {
			must(tab.Release(ent, racer)) // the grant won the select: no race this round
			continue
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled request = %v", round, err)
		}
		raced++
		must(tab.Acquire(bg, holder, ent, Exclusive))
		parks <- park{bg, next}
		parked()
		select {
		case err := <-errs:
			t.Fatalf("round %d: a request parked behind the holder returned %v before the release", round, err)
		case <-time.After(time.Millisecond):
		}
		must(tab.Release(ent, holder.Key))
		must(<-errs)
		must(tab.Release(ent, next))
	}
	if raced == 0 {
		t.Fatal("no round raced a cancel against a grant")
	}
	t.Logf("%d of 50 rounds raced a cancel against a grant", raced)
}
