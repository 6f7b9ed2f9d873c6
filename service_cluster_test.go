package distlock_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/netlock"
)

// TestLockServiceClusterTable drives two independent LockService
// instances against one partitioned lock space of three dlservers: the
// deployment WithRemoteCluster exists for. The entities x/y/z hash to
// whichever partitions they hash to — the services neither know nor
// care — and every session of the certified-ordered mix must commit
// with no deadlock handling, exactly as against a single remote table.
func TestLockServiceClusterTable(t *testing.T) {
	mkDB := func() *distlock.DDB { return xyzDB() }
	const servers = 3
	var srvs []*netlock.Server
	var addrs []string
	for i := 0; i < servers; i++ {
		srv, err := netlock.NewServer(mkDB(), locktable.Config{}, netlock.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
	}

	const services, clients, mult, txns = 2, 4, 2, 25
	var wg sync.WaitGroup
	errCh := make(chan error, services*clients*3)
	svcs := make([]*distlock.LockService, services)
	for i := range svcs {
		db := mkDB()
		svc, err := distlock.Open(db, distlock.WithRemoteCluster(addrs...), distlock.WithMultiplicity(mult))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		svcs[i] = svc
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
	// The certified tier ran on the partition servers' tables.
	var grants int64
	for _, srv := range srvs {
		grants += srv.TableMetrics().Snapshot().Grants
	}
	if grants == 0 {
		t.Fatal("certified commits granted nothing on any partition server")
	}

	// One service going away (releasing-on-disconnect on every partition)
	// leaves the other fully operational.
	svcs[0].Close()
	sess, err := svcs[1].Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Drive(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLockServiceClusterDialFailure: one unreachable partition fails the
// whole Open — a cluster with a hole in its entity space is not a lock
// service — after the dial-retry budget, and without hanging.
func TestLockServiceClusterDialFailure(t *testing.T) {
	db := xyzDB()
	srv, err := netlock.NewServer(xyzDB(), locktable.Config{}, netlock.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := distlock.Open(db, distlock.WithRemoteCluster(srv.Addr(), "127.0.0.1:1")); err == nil {
		t.Fatal("Open with an unreachable partition succeeded")
	}
}
