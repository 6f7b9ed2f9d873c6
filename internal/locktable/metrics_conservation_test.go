package locktable

import (
	"context"
	"sync"
	"testing"
	"time"

	"distlock/internal/model"
	"distlock/internal/obs"
)

// The metrics-conservation suite: the same counter bundle is threaded
// through every conformance backend and the ledger identities are
// asserted after deterministic concurrent traffic. The in-process
// backends count once per operation; the wire backends count twice (the
// client's bundle covers the traffic it generated, and the loopback
// registrations share the same bundle with the hosting server's table),
// so the assertions are factor-aware: whatever the per-operation factor,
// grants must balance releases exactly and the shared-grant split must
// account for every shared acquire. The Waiting gauge needs no factor:
// only a sharded table parks requests (in process, or on the hosting
// server), so it moves once per park on every backend.

// TestConformanceMetricsConservation drives concurrent mixed-mode
// traffic through each backend under -race and asserts, from snapshot
// deltas of a shared obs.TableMetrics bundle:
//
//	grants − releases = 0 once everything is released (no leaked holds)
//	fast-path hits + slow shared grants = all shared acquires performed
//	waiting returns to where it started (every parked request left)
func TestConformanceMetricsConservation(t *testing.T) {
	m := obs.NewTableMetrics()
	forEachTable(t, Config{Metrics: m}, func(t *testing.T, tab Table, ents []model.EntityID) {
		before := m.Snapshot()
		const goroutines = 8
		const iters = 100
		sharedOps := 0
		for g := 0; g < goroutines; g++ {
			for i := 0; i < iters; i++ {
				if (g+i)%2 == 0 {
					sharedOps++
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				in := inst(g + 1)
				for i := 0; i < iters; i++ {
					e := ents[(g*5+i*3)%len(ents)]
					mode := Exclusive
					if (g+i)%2 == 0 {
						mode = Shared
					}
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					if err := tab.Acquire(ctx, in, e, mode); err != nil {
						cancel()
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					cancel()
					if err := tab.Release(e, in.Key); err != nil {
						t.Errorf("goroutine %d: release: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		after := m.Snapshot()
		grants := after.Grants - before.Grants
		releases := after.Releases - before.Releases
		if grants != releases {
			t.Fatalf("ledger unbalanced: %d grants vs %d releases (leaked holds)", grants, releases)
		}
		total := int64(goroutines * iters)
		if grants < total || grants%total != 0 {
			t.Fatalf("grants = %d, want a positive multiple of the %d operations", grants, total)
		}
		factor := grants / total // 1 in-process, 2 on the loopback pairs (client + hosting server)
		shared := after.SharedGrants - before.SharedGrants
		if want := factor * int64(sharedOps); shared != want {
			t.Fatalf("shared grants = %d, want %d (%d shared acquires x factor %d)",
				shared, want, sharedOps, factor)
		}
		fast := after.FastPathHits - before.FastPathHits
		slow := after.SlowSharedGrants - before.SlowSharedGrants
		if fast+slow != shared {
			t.Fatalf("shared split leaks: fast %d + slow %d != shared %d", fast, slow, shared)
		}
		if waiting := after.Waiting - before.Waiting; waiting != 0 {
			t.Fatalf("waiting moved by %d at quiescence (a parked request never left its queue)", waiting)
		}
	})
}
