package distlock_test

import (
	"context"
	"testing"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/netlock"
)

// TestQueuedWriterProbe: three classes a FIFO lock table used to deadlock.
// A = Sx Ly Ux Uy, B = Ly Sx Uy Ux and C = Lx Ux are certified at
// multiplicity 1 — the model, like the brute oracle, lets a request wait
// only on conflicting holders. The drive: A's Sx is granted, B's Ly is
// granted, C's Lx parks behind A's shared hold, A's Ly parks on B, and then
// B asks for x in shared mode. That is compatible with A, x's only holder,
// but C's writer is queued ahead of it. Parking B there closes the cycle
// A → B → C → A, a wait the certified model does not have. B holds y, so
// its shared request passes the queued writer and every session commits:
// in process, over the wire at depth 0, and at depth 8, where B's Lock
// returns at submission and the wait would move into its Commit.
func TestQueuedWriterProbe(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remote bool
		depth  int
	}{
		{"sharded", false, 0},
		{"remote-depth0", true, 0},
		{"remote-depth8", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := xyzDB()
			opts := []distlock.ServiceOption{distlock.WithMultiplicity(1)}
			var srv *netlock.Server
			if tc.remote {
				var err error
				srv, err = netlock.NewServer(xyzDB(), locktable.Config{}, netlock.ServerOptions{})
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
			// The table's own view: the hosting server's for a wire backend
			// (a client never parks a request itself).
			table := func() (held, waiting int64) {
				c := svc.Stats().Certified.Table
				if srv != nil {
					c = srv.TableMetrics().Snapshot()
				}
				return c.Held, c.Waiting
			}
			waitTable := func(step string, held, waiting int64) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); ; {
					h, w := table()
					if h == held && w == waiting {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s: table holds %d with %d waiting, want %d and %d", step, h, w, held, waiting)
					}
					time.Sleep(time.Millisecond)
				}
			}
			ctx := context.Background()
			for _, c := range []*distlock.Transaction{
				chain(db, "A", "Sx", "Ly", "Ux", "Uy"),
				chain(db, "B", "Ly", "Sx", "Uy", "Ux"),
				chain(db, "C", "Lx", "Ux"),
			} {
				if res, err := svc.Register(ctx, c); err != nil || !res.Admitted {
					t.Fatalf("Register(%s) = %+v, %v; want certified", c.Name(), res, err)
				}
			}
			a, b, c := begin(t, svc, "A"), begin(t, svc, "B"), begin(t, svc, "C")
			if err := a.LockShared(ctx, "x"); err != nil {
				t.Fatal(err)
			}
			waitTable("A Sx", 1, 0)
			if err := b.LockExclusive(ctx, "y"); err != nil {
				t.Fatal(err)
			}
			waitTable("B Ly", 2, 0)
			cGot := make(chan error, 1)
			go func() { cGot <- c.LockExclusive(ctx, "x") }()
			waitTable("C Lx parks", 2, 1)
			aGot := make(chan error, 1)
			go func() { aGot <- a.LockExclusive(ctx, "y") }()
			waitTable("A Ly parks", 2, 2)

			// B's Sx and the rest of B: the step a FIFO queue deadlocks.
			bDone := make(chan error, 1)
			go func() {
				lctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
				for _, op := range []func() error{
					func() error { return b.LockShared(lctx, "x") },
					func() error { return b.Unlock("y") },
					func() error { return b.Unlock("x") },
					b.Commit,
				} {
					if err := op(); err != nil {
						bDone <- err
						return
					}
				}
				bDone <- nil
			}()
			select {
			case err := <-bDone:
				if err != nil {
					t.Fatalf("B: %v (its shared x waited behind C's queued writer)", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("B never committed: its shared x waits behind C's queued writer")
			}
			for _, op := range []func() error{
				func() error { return <-aGot },
				func() error { return a.Unlock("x") },
				func() error { return <-cGot },
				func() error { return a.Unlock("y") },
				a.Commit,
				func() error { return c.Unlock("x") },
				c.Commit,
			} {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
			if st := svc.Stats().Certified; st.Commits != 3 || st.Aborts != 0 {
				t.Fatalf("certified tier: commits %d, aborts %d; want 3, 0", st.Commits, st.Aborts)
			}
			waitTable("all committed", 0, 0)
		})
	}
}

func begin(t *testing.T, svc *distlock.LockService, class string) *distlock.Session {
	t.Helper()
	s, err := svc.Begin(context.Background(), class)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
