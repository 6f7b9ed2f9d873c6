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

// TestWoundsCountedWhereDecided: under wound-wait the sharded table
// counts every OnWound call it makes into Metrics.Wounds — an older
// writer queuing behind two younger shared holders is two wound
// decisions, and the fallback tier's table counters (and dlserver's
// distlock_table_wounds_total) must show both.
func TestWoundsCountedWhereDecided(t *testing.T) {
	ddb := model.NewDDB()
	e := ddb.MustEntity("e", "s0")
	var calls atomic.Int64
	m := obs.NewTableMetrics()
	tab := NewSharded(ddb, Config{WoundWait: true, Metrics: m, OnWound: func(int) { calls.Add(1) }})
	defer tab.Close()
	suiteMetrics.Store(tab, m)
	defer suiteMetrics.Delete(tab)
	young1, young2, old := inst(7), inst(8), inst(3)
	mustAcquireMode(t, tab, young1, e, Shared)
	mustAcquireMode(t, tab, young2, e, Shared)
	got := make(chan error, 1)
	go func() { got <- tab.Acquire(context.Background(), old, e, Exclusive) }()
	waitForQueue(t, tab, 1)
	for _, h := range []Instance{young1, young2} {
		if err := tab.Release(e, h.Key); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("OnWound called %d times, want 2 (one per younger shared holder)", n)
	}
	if w := m.Snapshot().Wounds; w != calls.Load() {
		t.Fatalf("Metrics.Wounds = %d, want %d (one per OnWound call)", w, calls.Load())
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
// on the default table (atomic fast path) as on the same table with
// DisableSharedFastPath (every reader through the entity's stripe mutex).
// Kept short — a few hundred milliseconds per run — and asserted with a
// margin only in the direction that matters: if the fast path regresses
// into a convoy, its number collapses to (or below) the mutex path's and
// this fails loudly.
func TestReaderCrowdFastPathBeatsSlowPath(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	run := func(cfg Config) float64 {
		ddb := model.NewDDB()
		hot := ddb.MustEntity("hot", "s0")
		tab := NewSharded(ddb, cfg)
		defer tab.Close()
		const crowd = 8
		ctx := context.Background()
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < crowd; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(g + 1)
				for i := 0; i < iters; i++ {
					if err := tab.Acquire(ctx, in, hot, Shared); err != nil {
						t.Error(err)
						return
					}
					if err := tab.Release(hot, in.Key); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(crowd*iters) / time.Since(start).Seconds()
	}
	fastOps := run(Config{})
	slowOps := run(Config{DisableSharedFastPath: true})
	t.Logf("reader crowd: fast path %.0f ops/s, stripe-mutex path %.0f ops/s (%.1fx)",
		fastOps, slowOps, fastOps/slowOps)
	if fastOps < slowOps {
		t.Fatalf("reader-crowd throughput on the fast path %.0f ops/s below the stripe-mutex path's %.0f ops/s — the hot-entity convoy is back",
			fastOps, slowOps)
	}
}
