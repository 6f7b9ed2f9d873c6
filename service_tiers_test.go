package distlock_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/netlock"
)

// ownerWords is a service-wide book of who holds each entity, kept by the
// sessions themselves, outside every lock table: one word per entity, -1
// while a writer holds it, the reader count otherwise. A session claims
// its word once its Lock returned and gives it back before its Unlock, so
// a claim that meets a conflicting owner is a mutual-exclusion violation
// the table let through, whichever tier or service the two sessions run
// on.
type ownerWords struct {
	words      []atomic.Int64
	violations atomic.Int64
}

func newOwnerWords(db *distlock.DDB) *ownerWords {
	return &ownerWords{words: make([]atomic.Int64, db.NumEntities())}
}

func (o *ownerWords) claim(e distlock.EntityID, m distlock.Mode) {
	w := &o.words[e]
	if m == distlock.Exclusive {
		if !w.CompareAndSwap(0, -1) {
			o.violations.Add(1)
		}
		return
	}
	for {
		v := w.Load()
		if v < 0 {
			o.violations.Add(1)
			return
		}
		if w.CompareAndSwap(v, v+1) {
			return
		}
	}
}

func (o *ownerWords) release(e distlock.EntityID, m distlock.Mode) {
	if m == distlock.Exclusive {
		o.words[e].CompareAndSwap(-1, 0)
	} else {
		o.words[e].Add(-1)
	}
}

// driveOwned runs the session's class program in its template order, as
// Drive does, claiming each entity's owner word while the session holds
// it and pausing hold after each grant. Any failure aborts the session.
func driveOwned(ctx context.Context, sess *distlock.Session, db *distlock.DDB, o *ownerWords, hold time.Duration) error {
	tmpl := sess.Template()
	for _, nid := range tmpl.Order() {
		nd := tmpl.Node(nid)
		name := db.EntityName(nd.Entity)
		if nd.Kind == distlock.UnlockOp {
			o.release(nd.Entity, tmpl.ModeOf(nd.Entity))
			if err := sess.Unlock(name); err != nil {
				sess.Abort()
				return err
			}
			continue
		}
		if err := sess.Lock(ctx, name, nd.Mode); err != nil {
			sess.Abort()
			return err
		}
		o.claim(nd.Entity, nd.Mode)
		if hold > 0 {
			time.Sleep(hold)
		}
	}
	if err := sess.Commit(); err != nil {
		sess.Abort()
		return err
	}
	return nil
}

// dlservers starts n loopback netlock servers over xyzDB and returns
// their addresses.
func dlservers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := netlock.NewServer(xyzDB(), locktable.Config{}, netlock.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			srv.Close()
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.Addr())
	}
	return addrs
}

// TestTwoTierExclusionProbe: a certified session and a fallback session
// exclude each other on every backend, because both tiers run on the one
// lock table. A = Lx Ly Ux Uy is certified and B = Ly Lx Uy Ux is
// rejected against it. While A holds x, B's first Lock, which takes
// {x, y}, blocks; once B holds {x, y}, a new A's Lock(x) blocks until B
// unlocks x. Every wait has a deadline.
func TestTwoTierExclusionProbe(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers int
	}{{"sharded", 0}, {"remote", 1}, {"cluster2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			db := xyzDB()
			var opts []distlock.ServiceOption
			switch tc.servers {
			case 1:
				opts = append(opts, distlock.WithRemoteTable(dlservers(t, 1)[0]))
			case 2:
				opts = append(opts, distlock.WithRemoteCluster(dlservers(t, 2)...))
			}
			svc, err := distlock.Open(db, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for _, c := range []struct {
				txn       *distlock.Transaction
				certified bool
			}{
				{chain(db, "A", "Lx", "Ly", "Ux", "Uy"), true},
				{chain(db, "B", "Ly", "Lx", "Uy", "Ux"), false},
			} {
				if res, err := svc.Register(ctx, c.txn); err != nil || res.Admitted != c.certified {
					t.Fatalf("Register(%s) = %+v, %v; want admitted %v", c.txn.Name(), res, err, c.certified)
				}
			}
			run := func(ops ...func() error) {
				t.Helper()
				for _, op := range ops {
					if err := op(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// async starts a Lock that must block: it may not return within
			// the grace period. wait then collects it within the deadline.
			async := func(what string, lock func() error) (wait func()) {
				t.Helper()
				got := make(chan error, 1)
				go func() { got <- lock() }()
				select {
				case err := <-got:
					t.Fatalf("%s returned %v; it must block", what, err)
				case <-time.After(100 * time.Millisecond):
				}
				return func() {
					t.Helper()
					select {
					case err := <-got:
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s never returned", what)
					}
				}
			}

			a := begin(t, svc, "A")
			run(func() error { return a.LockExclusive(ctx, "x") })
			b := begin(t, svc, "B")
			bLocked := async("B's first Lock while A holds x", func() error { return b.LockExclusive(ctx, "y") })
			run(func() error { return a.LockExclusive(ctx, "y") },
				func() error { return a.Unlock("x") },
				func() error { return a.Unlock("y") },
				a.Commit)
			bLocked()

			a2 := begin(t, svc, "A")
			aLocked := async("A's Lock(x) while B holds {x, y}", func() error { return a2.LockExclusive(ctx, "x") })
			run(func() error { return b.LockExclusive(ctx, "x") },
				func() error { return b.Unlock("y") },
				func() error { return b.Unlock("x") },
				b.Commit)
			aLocked()
			run(func() error { return a2.LockExclusive(ctx, "y") },
				func() error { return a2.Unlock("x") },
				func() error { return a2.Unlock("y") },
				a2.Commit)

			st := svc.Stats()
			if st.Certified.Commits != 2 || st.Fallback.Commits != 1 || st.Certified.Aborts+st.Fallback.Aborts != 0 {
				t.Fatalf("certified %+v, fallback %+v; want 2 and 1 commits, no aborts", st.Certified.Counters, st.Fallback.Counters)
			}
		})
	}
}

// TestFallbackTiersExcludeAcrossServices: two services on one dlserver
// each register a class over {x, y} that is rejected to the fallback tier
// (its two locks are unordered, so two copies can deadlock at
// multiplicity 2). Their fallback sessions run on the server's table, so
// the owner words both services' sessions share never see two holders.
func TestFallbackTiersExcludeAcrossServices(t *testing.T) {
	const services, clients, txns = 2, 3, 20
	addr := dlservers(t, 1)[0]
	db := xyzDB()
	owners := newOwnerWords(db)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, services*clients)
	for i := 0; i < services; i++ {
		sdb := xyzDB()
		svc, err := distlock.Open(sdb, distlock.WithRemoteTable(addr), distlock.WithMultiplicity(2))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if res, err := svc.Register(ctx, incomparableXY(sdb, "S")); err != nil || res.Admitted {
			t.Fatalf("Register(S) = %+v, %v; want a fallback class", res, err)
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < txns; k++ {
					sess, err := svc.Begin(ctx, "S")
					if err == nil {
						err = driveOwned(ctx, sess, sdb, owners, 200*time.Microsecond)
					}
					if err != nil {
						errCh <- fmt.Errorf("service %d: %w", i, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := owners.violations.Load(); n != 0 {
		t.Fatalf("%d grants found another service's fallback session holding the entity", n)
	}
}
