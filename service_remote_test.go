package distlock_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/netlock"
)

// TestLockServiceRemoteTable drives two independent LockService instances
// — two "processes", each with its own admission service and session
// numbering — against one shared netlock server: the certified tiers of
// both contend for the same lock space, exactly the deployment
// WithRemoteTable exists for. Every session must commit (the mix is
// certified, and the shared table serializes cross-service conflicts),
// and closing one service must not disturb the other's locks.
func TestLockServiceRemoteTable(t *testing.T) {
	// Both services must present the same database fingerprint: build two
	// structurally identical DDBs, as two real processes would from shared
	// config.
	mkDB := func() *distlock.DDB { return xyzDB() }
	srv, err := netlock.NewServer(mkDB(), locktable.Config{}, netlock.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Multiplicity 2 keeps the Theorem-4 copy-vertex certification cheap
	// (the three classes fully overlap, so the expanded interaction graph
	// is dense); the extra clients serialize on the per-class slots.
	const services, clients, mult, txns = 2, 4, 2, 25
	var wg sync.WaitGroup
	errCh := make(chan error, services*clients*3)
	svcs := make([]*distlock.LockService, services)
	for i := range svcs {
		db := mkDB()
		svc, err := distlock.Open(db, distlock.WithRemoteTable(srv.Addr()), distlock.WithMultiplicity(mult))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		svcs[i] = svc
		// The certified-ordered mix from E10: pairwise safe and
		// deadlock-free, so it must run clean with no deadlock handling
		// even against the other service's traffic.
		classes := []*distlock.Transaction{
			chain(db, "A", "Lx", "Ly", "Ux", "Uy"),
			chain(db, "B", "Lx", "Lz", "Ux", "Uz"),
			chain(db, "C", "Ly", "Lz", "Uy", "Uz"),
		}
		rs, err := svc.RegisterBatch(context.Background(), classes)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if !r.Admitted {
				t.Fatalf("class %s rejected: %s", r.Class, r.Reason)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, svc := range svcs {
		for c := 0; c < clients; c++ {
			for _, class := range []string{"A", "B", "C"} {
				wg.Add(1)
				go func(svc *distlock.LockService, class string) {
					defer wg.Done()
					for i := 0; i < txns; i++ {
						sess, err := svc.Begin(ctx, class)
						if err != nil {
							errCh <- err
							return
						}
						if err := sess.Drive(ctx); err != nil {
							errCh <- err
							return
						}
					}
				}(svc, class)
			}
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for i, svc := range svcs {
		st := svc.Stats()
		want := int64(clients * 3 * txns)
		if st.Certified.Commits != want || st.Certified.Aborts != 0 {
			t.Fatalf("service %d: commits=%d aborts=%d, want %d/0",
				i, st.Certified.Commits, st.Certified.Aborts, want)
		}
	}
	// The certified tier ran on the dlserver's table, not a local one.
	if g := srv.TableMetrics().Snapshot().Grants; g == 0 {
		t.Fatal("certified commits granted nothing on the dlserver")
	}

	// One service going away (releasing-on-disconnect anything it still
	// held) leaves the other fully operational.
	svcs[0].Close()
	sess, err := svcs[1].Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Drive(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDriveHoldAbortsOnFailedCommit: when the server goes away between a
// session's Lock and its Unlock, the release cannot be confirmed and
// Commit fails inside DriveHold. DriveHold must abort the session, which
// returns its multiplicity slot: at multiplicity 1 the next Begin
// succeeds instead of blocking forever. Both wire paths defer a release's
// error to Commit — the receipt-joined synchronous one and the pipelined
// one.
func TestDriveHoldAbortsOnFailedCommit(t *testing.T) {
	for _, depth := range []int{0, 8} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			db := xyzDB()
			srv, err := netlock.NewServer(db, locktable.Config{}, netlock.ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			svc, err := distlock.Open(db, distlock.WithRemoteTable(srv.Addr()),
				distlock.WithMultiplicity(1), distlock.WithPipelineDepth(depth))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ux")); err != nil {
				t.Fatal(err)
			}

			sess, err := svc.Begin(ctx, "A")
			if err != nil {
				t.Fatal(err)
			}
			drove := make(chan error, 1)
			go func() { drove <- sess.DriveHold(ctx, 300*time.Millisecond) }()
			// Take the server away during the hold, once the grant (and, on
			// the pipelined path, its ack) is in.
			for srv.TableMetrics().Snapshot().Grants == 0 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			srv.Close()
			if err := <-drove; err == nil {
				t.Fatal("DriveHold committed with the server gone")
			}

			bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			next, err := svc.Begin(bctx, "A")
			if err != nil {
				t.Fatalf("Begin after DriveHold's failed commit = %v (multiplicity slot leaked)", err)
			}
			next.Abort()
		})
	}
}

// TestLockServiceRemoteDialFailure: a bad address surfaces as an Open
// error, not a hung service.
func TestLockServiceRemoteDialFailure(t *testing.T) {
	db := xyzDB()
	_, err := distlock.Open(db, distlock.WithRemoteTable("127.0.0.1:1"))
	if err == nil {
		t.Fatal("Open with an unreachable remote table succeeded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestTraceStagesTotalIsLockLatency: under WithTraceSampling(1) the
// "total" stage row counts exactly the sampled certified Locks, on the
// in-process table and over the wire, synchronous and pipelined: N
// transactions of k locks give N·k samples. Sampled in-process Unlocks
// reach the span ring but must not be folded into the row.
func TestTraceStagesTotalIsLockLatency(t *testing.T) {
	const n, k = 20, 3
	for _, tc := range []struct {
		name   string
		remote bool
		depth  int
	}{{"sharded", false, 0}, {"remote", true, 0}, {"remote-pipelined", true, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			db := xyzDB()
			opts := []distlock.ServiceOption{distlock.WithTraceSampling(1)}
			if tc.remote {
				srv, err := netlock.NewServer(db, locktable.Config{}, netlock.ServerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				opts = append(opts, distlock.WithRemoteTable(srv.Addr()), distlock.WithPipelineDepth(tc.depth))
			}
			svc, err := distlock.Open(db, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			res, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Lz", "Ux", "Uy", "Uz"))
			if err != nil || !res.Admitted {
				t.Fatalf("class not certified: %+v, %v", res, err)
			}
			for range n {
				sess, err := svc.Begin(ctx, "A")
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Drive(ctx); err != nil {
					t.Fatal(err)
				}
			}
			stages := svc.Stats().Certified.TraceStages
			if len(stages) == 0 || stages[0].Stage != "total" {
				t.Fatalf("trace stages %+v, want a leading total row", stages)
			}
			if got := stages[0].Count; got != n*k {
				t.Fatalf("total row counts %d samples, want %d sampled Locks", got, n*k)
			}
		})
	}
}

// TestRemoteSessionAllocs is TestCertifiedSessionAllocs over the wire: a
// certified transaction on loopback netlock servers, server goroutines
// included in the count — synchronous and pipelined on one server, and
// pipelined over a two-server cluster. The wire recycles its frame
// buffers, its request records (each the completion of one acquire or
// release, with its reply channel) and its await timers, and the session
// recycles its state, wire-side state included, so what is left per
// transaction is the 32-byte session handle — on a cluster too, whose
// router hands out the partition clients' records and keeps its partition
// fences by value.
func TestRemoteSessionAllocs(t *testing.T) {
	for _, row := range []struct {
		name                  string
		servers               int
		depth                 int
		maxAllocs, maxBytes   float64
		raceAllocs, raceBytes float64
	}{
		// Measured on a 2-core host: 1 alloc and ≈35 B (≈170 B while every
		// session allocated its 160-byte state, 9 allocs and ≈560 B while
		// every acquire and release allocated its completion), and ≈13
		// allocs and ≈950 B under -race, whose pools drop items at random.
		{name: "sync", servers: 1, maxAllocs: 3, maxBytes: 96, raceAllocs: 18, raceBytes: 1300},
		// Measured on a 2-core host: 1 alloc and ≈35–50 B (≈160 B, and 10
		// allocs and ≈650 B, before), and ≈11 allocs and ≈790 B under -race.
		{name: "pipelined", servers: 1, depth: 8, maxAllocs: 3, maxBytes: 96, raceAllocs: 16, raceBytes: 1100},
		// Measured on a 2-core host: 1 alloc and ≈42 B (≈170 B before, 12
		// allocs and ≈710 B while the router wrapped every operation in a
		// completion of its own), and ≈11 allocs and ≈800 B under -race.
		{name: "cluster2", servers: 2, depth: 8, maxAllocs: 3, maxBytes: 96, raceAllocs: 16, raceBytes: 1100},
	} {
		t.Run(row.name, func(t *testing.T) {
			db := xyzDB()
			var addrs []string
			for range row.servers {
				srv, err := netlock.NewServer(xyzDB(), locktable.Config{}, netlock.ServerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				addrs = append(addrs, srv.Addr())
			}
			table := distlock.WithRemoteTable(addrs[0])
			if row.servers > 1 {
				table = distlock.WithRemoteCluster(addrs...)
			}
			svc, err := distlock.Open(db, table, distlock.WithPipelineDepth(row.depth))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			res, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Lz", "Ux", "Uy", "Uz"))
			if err != nil || !res.Admitted {
				t.Fatalf("class not certified: %+v, %v", res, err)
			}
			ents := []string{"x", "y", "z"}
			cycle := func() {
				sess, err := svc.Begin(ctx, "A")
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if err := sess.LockExclusive(ctx, e); err != nil {
						t.Fatal(err)
					}
				}
				for _, e := range ents {
					if err := sess.Unlock(e); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				cycle() // warm the pools and the connections' buffers
			}
			const runs = 400
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				cycle()
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / runs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("remote %s session cycle: %.1f allocs, %.0f B", row.name, allocs, bytes)
			maxAllocs, maxBytes := row.maxAllocs, row.maxBytes
			if raceEnabled {
				maxAllocs, maxBytes = row.raceAllocs, row.raceBytes
			}
			if allocs > maxAllocs || bytes > maxBytes {
				t.Fatalf("remote %s session cycle = %.1f allocs, %.0f B; want <= %.0f allocs and <= %.0f B",
					row.name, allocs, bytes, maxAllocs, maxBytes)
			}
		})
	}
}
