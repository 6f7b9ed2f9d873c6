package distlock_test

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlock"
)

// xyzDB returns a three-entity, three-site database.
func xyzDB() *distlock.DDB {
	db := distlock.NewDDB()
	db.MustEntity("x", "s1")
	db.MustEntity("y", "s2")
	db.MustEntity("z", "s3")
	return db
}

// incomparableXY builds a class whose Lx and Ly are incomparable: fine
// alone, but two concurrent copies can deadlock each other, so it is
// rejected to the fallback tier at multiplicity >= 2.
func incomparableXY(db *distlock.DDB, name string) *distlock.Transaction {
	b := distlock.NewBuilder(db, name)
	lx := b.Lock("x")
	ux := b.Unlock("x")
	ly := b.Lock("y")
	uy := b.Unlock("y")
	b.Arc(lx, ux)
	b.Arc(ly, uy)
	b.Arc(lx, uy)
	b.Arc(ly, ux)
	return b.MustFreeze()
}

func TestLockServiceRegisterTiers(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db, distlock.WithMultiplicity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	res, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Ux", "Uy"))
	if err != nil || !res.Admitted {
		t.Fatalf("ordered class not certified: %+v, %v", res, err)
	}
	res, err = svc.Register(ctx, chain(db, "R", "Ly", "Lx", "Uy", "Ux"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("cross-ordered class certified against A")
	}
	// Both tiers are Begin-able.
	for _, class := range []string{"A", "R"} {
		sess, err := svc.Begin(ctx, class)
		if err != nil {
			t.Fatalf("Begin(%s): %v", class, err)
		}
		if sess.Certified() != (class == "A") {
			t.Fatalf("session %s on wrong tier", class)
		}
		if err := sess.Drive(ctx); err != nil {
			t.Fatalf("Drive(%s): %v", class, err)
		}
	}
	// Duplicate names are errors, not silent overwrites.
	if _, err := svc.Register(ctx, chain(db, "A", "Lz", "Uz")); err == nil {
		t.Fatal("duplicate class name registered")
	}
	// Deregister frees the name and the certified slot in the live set.
	if !svc.Deregister("A") || svc.Deregister("A") {
		t.Fatal("Deregister not exactly-once")
	}
	if _, err := svc.Begin(ctx, "A"); err == nil {
		t.Fatal("Begin of a deregistered class succeeded")
	}
	res, err = svc.Register(ctx, chain(db, "A2", "Ly", "Lx", "Uy", "Ux"))
	if err != nil || !res.Admitted {
		t.Fatalf("y-then-x class not certified after A departed: %+v, %v", res, err)
	}
}

// TestFallbackTierProbe is the schedule that made the wound-wait fallback
// tier commit a non-serializable pair. U1 = Lx Ux Ly Uy is certified;
// U2 = Ly Uy Lx Ux and U3 = Lx Ux Ly Uy are rejected to the fallback tier.
// Driving U3's Lx Ux, then all of U2, then the rest of U3 used to commit
// both with a D(S) cycle (U3 before U2 on x, U2 before U3 on y). Now U3's
// first Lock takes {x, y}, U2's first Lock waits until U3 commits, and the
// two commit one after the other.
func TestFallbackTierProbe(t *testing.T) {
	db := distlock.NewDDB()
	db.MustEntity("x", "s1")
	db.MustEntity("y", "s2")
	svc, err := distlock.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for _, c := range []struct {
		txn       *distlock.Transaction
		certified bool
	}{
		{chain(db, "U1", "Lx", "Ux", "Ly", "Uy"), true},
		{chain(db, "U2", "Ly", "Uy", "Lx", "Ux"), false},
		{chain(db, "U3", "Lx", "Ux", "Ly", "Uy"), false},
	} {
		res, err := svc.Register(ctx, c.txn)
		if err != nil || res.Admitted != c.certified {
			t.Fatalf("Register(%s) = %+v, %v; want admitted %v", c.txn.Name(), res, err, c.certified)
		}
	}
	u2, err := svc.Begin(ctx, "U2")
	if err != nil {
		t.Fatal(err)
	}
	u3, err := svc.Begin(ctx, "U3")
	if err != nil {
		t.Fatal(err)
	}
	if err := u3.LockExclusive(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if held := u3.Held(); strings.Join(held, " ") != "x y" || svc.Stats().Certified.Table.Held != 2 {
		t.Fatalf("U3's first Lock holds %v (table %d), want its whole set [x y]",
			held, svc.Stats().Certified.Table.Held)
	}
	if err := u3.Unlock("x"); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- u2.LockExclusive(ctx, "y") }()
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().Certified.Table.Waiting != 1; {
		select {
		case err := <-got:
			t.Fatalf("U2's Lock(y) returned %v while U3 holds y", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("U2's Lock(y) never parked")
		}
		time.Sleep(time.Millisecond)
	}
	for _, op := range []func() error{
		func() error { return u3.LockExclusive(ctx, "y") },
		func() error { return u3.Unlock("y") },
		u3.Commit,
		func() error { return <-got },
		func() error { return u2.Unlock("y") },
		func() error { return u2.LockExclusive(ctx, "x") },
		func() error { return u2.Unlock("x") },
		u2.Commit,
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Fallback.Commits != 2 || st.Fallback.Aborts != 0 || st.Certified.Table.Held != 0 {
		t.Fatalf("fallback tier: commits %d, aborts %d, table holds %d; want 2, 0, 0",
			st.Fallback.Commits, st.Fallback.Aborts, st.Certified.Table.Held)
	}
}

// TestLockServiceLockCancellation is the acceptance criterion at the
// public surface: a Session.Lock blocked on a held lock returns promptly
// when its context is cancelled.
func TestLockServiceLockCancellation(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db, distlock.WithMultiplicity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ux")); err != nil {
		t.Fatal(err)
	}

	holder, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.LockExclusive(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	waiter, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = waiter.LockExclusive(short, "x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Lock under expiring context = %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("cancelled Lock took %v to return", waited)
	}
	if held := waiter.Held(); len(held) != 0 {
		t.Fatalf("cancelled waiter holds %v", held)
	}
	waiter.Abort()
	if err := holder.Unlock("x"); err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLockServiceMultiplicityBound: Begin enforces the per-class session
// bound the certified tier was certified for.
func TestLockServiceMultiplicityBound(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db) // multiplicity 1
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ux")); err != nil {
		t.Fatal(err)
	}
	first, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	// The second concurrent session must block until the first closes.
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := svc.Begin(short, "A"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-multiplicity Begin = %v, want deadline exceeded", err)
	}
	if err := first.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	second, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatalf("Begin after slot freed: %v", err)
	}
	if err := second.Drive(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeregisterWakesParkedBegin: a Begin parked on a full class returns
// "no longer registered" as soon as Deregister removes the class, not when
// its context expires.
func TestDeregisterWakesParkedBegin(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db) // multiplicity 1
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if res, err := svc.Register(ctx, chain(db, "A", "Lx", "Ux")); err != nil || !res.Admitted {
		t.Fatalf("class not certified: %+v, %v", res, err)
	}
	live, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	wait, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	got := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := svc.Begin(wait, "A")
		got <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the Begin park
	if !svc.Deregister("A") {
		t.Fatal("Deregister(A) = false")
	}
	err = <-got
	if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "no longer registered") || took > 2*time.Second {
		t.Fatalf("parked Begin across Deregister = %v after %v, want \"no longer registered\" at once", err, took)
	}
	// The live session runs on, and its commit evicts the class.
	if err := live.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Admission.Evicted; got != 1 {
		t.Fatalf("%d evictions, want 1", got)
	}
}

// TestLockServiceRaceStress spins N concurrent client sessions — mixed
// certified and fallback classes — through the session API and asserts the
// conservation invariants: every begun session ends in exactly one commit
// or abort, neither tier (no deadlock handling on either) ever aborts, and no
// session ends holding a lock. The sessions keep service-wide owner words
// (see ownerWords), so a grant that meets a holder of either tier fails
// the test. Runs under the CI -race step, on the default (in-process
// sharded) lock table both tiers share.
func TestLockServiceRaceStress(t *testing.T) {
	t.Run("sharded", raceStress)
}

func raceStress(t *testing.T) {
	const (
		clientsPerClass = 4
		txnsPerClient   = 25
		mult            = 2
	)
	db := xyzDB()
	svc, err := distlock.Open(db, distlock.WithMultiplicity(mult))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	certified := []*distlock.Transaction{
		chain(db, "A", "Lx", "Ly", "Ux", "Uy"),
		chain(db, "B", "Lx", "Lz", "Ux", "Uz"),
		chain(db, "C", "Ly", "Lz", "Uy", "Uz"),
	}
	fallback := []*distlock.Transaction{
		chain(db, "R", "Ly", "Lx", "Uy", "Ux"), // conflicts with A
		incomparableXY(db, "S"),                // self-deadlocks at mult 2
	}
	rs, err := svc.RegisterBatch(ctx, certified)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !r.Admitted {
			t.Fatalf("certified fixture rejected: %+v", r)
		}
	}
	rs, err = svc.RegisterBatch(ctx, fallback)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Admitted {
			t.Fatalf("fallback fixture certified: %+v", r)
		}
	}

	classes := svc.Classes()
	if len(classes) != 5 {
		t.Fatalf("classes = %v", classes)
	}
	owners := newOwnerWords(db)
	var wg sync.WaitGroup
	errCh := make(chan error, len(classes)*clientsPerClass)
	for _, class := range classes {
		for c := 0; c < clientsPerClass; c++ {
			wg.Add(1)
			go func(class string) {
				defer wg.Done()
				for i := 0; i < txnsPerClient; i++ {
					sess, err := svc.Begin(ctx, class)
					if err != nil {
						errCh <- fmt.Errorf("Begin(%s): %w", class, err)
						return
					}
					err = driveOwned(ctx, sess, db, owners, 0)
					if held := sess.Held(); len(held) != 0 {
						errCh <- fmt.Errorf("%s session closed holding %v", class, held)
						return
					}
					if err != nil {
						errCh <- fmt.Errorf("Drive(%s): %w", class, err)
						return
					}
				}
			}(class)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := owners.violations.Load(); n != 0 {
		t.Fatalf("%d grants met a holder of either tier", n)
	}

	st := svc.Stats()
	wantCommits := int64(len(classes) * clientsPerClass * txnsPerClient)
	if got := st.Certified.Commits + st.Fallback.Commits; got != wantCommits {
		t.Fatalf("commits = %d, want %d", got, wantCommits)
	}
	if st.Certified.Aborts != 0 || st.Certified.Wounds != 0 {
		t.Fatalf("certified tier (no deadlock handling) aborted: %+v", st.Certified)
	}
	if st.Fallback.Aborts != 0 {
		t.Fatalf("fallback tier (two-phase, no deadlock handling) aborted: %+v", st.Fallback)
	}
	if closed := st.Certified.Commits + st.Certified.Aborts +
		st.Fallback.Commits + st.Fallback.Aborts; closed != st.Begun {
		t.Fatalf("conservation violated: begun=%d closed=%d", st.Begun, closed)
	}
	if st.Certified.Commits != int64(len(certified)*clientsPerClass*txnsPerClient) {
		t.Fatalf("certified commits = %d", st.Certified.Commits)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
	if _, err := svc.Begin(ctx, "A"); !errors.Is(err, distlock.ErrServiceClosed) {
		t.Fatalf("Begin after Close = %v", err)
	}
	if _, err := svc.Register(ctx, chain(db, "Z", "Lz", "Uz")); !errors.Is(err, distlock.ErrServiceClosed) {
		t.Fatalf("Register after Close = %v", err)
	}
}

// TestDeregisterDefersEvictionUntilDrained: deregistering a certified
// class with live sessions must keep it in the admission interference set
// until they close — otherwise a conflicting class could be certified onto
// the same no-deadlock-handling lock table while the departed class still
// holds locks, and the two could deadlock with no handling in place.
func TestDeregisterDefersEvictionUntilDrained(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Ux", "Uy")); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LockExclusive(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if !svc.Deregister("A") {
		t.Fatal("Deregister(A) = false")
	}
	// While A's session lives, a class with the opposite lock order must
	// stay uncertified — A still holds x on the certified lock table.
	res, err := svc.Register(ctx, chain(db, "B", "Ly", "Lx", "Uy", "Ux"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("conflicting class certified while the departed class still held locks")
	}
	// Drain A: eviction happens at the last session close, reopening the
	// certified tier for the opposite order.
	for _, step := range []func() error{
		func() error { return sess.LockExclusive(ctx, "y") },
		func() error { return sess.Unlock("x") },
		func() error { return sess.Unlock("y") },
		sess.Commit,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err = svc.Register(ctx, chain(db, "B2", "Ly", "Lx", "Uy", "Ux"))
	if err != nil || !res.Admitted {
		t.Fatalf("registration after the class drained: %+v, %v", res, err)
	}
}

// TestBeginDeregisterRace: Begin and Commit race a Deregister of their
// certified class without the service mutex. Concurrent live sessions never
// exceed the multiplicity, every Begin that starts after Deregister returns
// fails, the class stays in the admission interference set while a session
// lives, and it is evicted exactly once when the last one closes.
func TestBeginDeregisterRace(t *testing.T) {
	const m, workers = 2, 4
	db := xyzDB()
	svc, err := distlock.Open(db, distlock.WithMultiplicity(m))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Ux", "Uy")); err != nil || !res.Admitted {
		t.Fatalf("class not certified: %+v, %v", res, err)
	}
	evicted := svc.Stats().Admission.Evicted
	var live, maxLive, commits atomic.Int64
	var deregistered atomic.Bool
	enter := func() {
		n := live.Add(1)
		for old := maxLive.Load(); n > old && !maxLive.CompareAndSwap(old, n); old = maxLive.Load() {
		}
	}
	run := func(sess *distlock.Session) error {
		for _, step := range []func() error{
			func() error { return sess.LockExclusive(ctx, "x") },
			func() error { return sess.LockExclusive(ctx, "y") },
			func() error { return sess.Unlock("x") },
			func() error { return sess.Unlock("y") },
		} {
			if err := step(); err != nil {
				return err
			}
		}
		live.Add(-1)
		return sess.Commit()
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				after := deregistered.Load()
				sess, err := svc.Begin(ctx, "A")
				if err != nil {
					if !strings.Contains(err.Error(), "registered") {
						t.Errorf("Begin failed for another reason: %v", err)
					}
					return
				}
				if after {
					t.Error("Begin that started after Deregister returned succeeded")
				}
				enter()
				if err := run(sess); err != nil {
					t.Error(err)
					sess.Abort()
					return
				}
				commits.Add(1)
			}
		}()
	}
	waitCommits := func(n int64) {
		for commits.Load() < n && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}
	waitCommits(50)
	// A pinned session keeps the class live across the Deregister.
	pin, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	enter()
	waitCommits(commits.Load() + 50)
	done := make(chan bool)
	go func() {
		ok := svc.Deregister("A")
		deregistered.Store(true)
		done <- ok
	}()
	if !<-done {
		t.Fatal("Deregister(A) = false")
	}
	wg.Wait()
	if got := maxLive.Load(); got > m {
		t.Fatalf("%d concurrent live sessions, multiplicity %d", got, m)
	}
	res, err := svc.Register(ctx, chain(db, "B", "Ly", "Lx", "Uy", "Ux"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("opposite-order class certified while the departed class had a live session")
	}
	if got := svc.Stats().Admission.Evicted; got != evicted {
		t.Fatalf("evicted %d times before the class drained", got-evicted)
	}
	if err := run(pin); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Admission.Evicted; got != evicted+1 {
		t.Fatalf("evicted %d times once the class drained, want 1", got-evicted)
	}
	res, err = svc.Register(ctx, chain(db, "B2", "Ly", "Lx", "Uy", "Ux"))
	if err != nil || !res.Admitted {
		t.Fatalf("opposite-order class after the class drained: %+v, %v", res, err)
	}
	if got := svc.Stats().Admission.Evicted; got != evicted+1 {
		t.Fatalf("evicted %d times after the drain, want 1", got-evicted)
	}

	// A Begin parked on a full class when Deregister runs fails once a
	// slot frees, even though it found the class registered.
	if res, err := svc.Register(ctx, chain(db, "C", "Lz", "Uz")); err != nil || !res.Admitted {
		t.Fatalf("class C not certified: %+v, %v", res, err)
	}
	var full []*distlock.Session
	for range m {
		sess, err := svc.Begin(ctx, "C")
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, sess)
	}
	parked := make(chan error, 1)
	go func() {
		sess, err := svc.Begin(ctx, "C")
		if err == nil {
			sess.Abort()
		}
		parked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	svc.Deregister("C")
	for _, sess := range full {
		if err := sess.Drive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-parked; err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("parked Begin after Deregister = %v, want a not-registered error", err)
	}
	if got := svc.Stats().Admission.Evicted; got != evicted+2 {
		t.Fatalf("%d evictions for two deregistered classes", got-evicted)
	}
}

// TestSessionEntityNames: Lock and Unlock resolve names by value, and
// keep their errors for a name the database lacks and for a database
// entity outside the class template.
func TestSessionEntityNames(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Ux", "Uy")); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Abort()
	for _, c := range []struct {
		err  error
		want string
	}{
		{sess.LockExclusive(ctx, "w"), `distlock: unknown entity "w"`},
		{sess.Unlock("w"), `distlock: unknown entity "w"`},
		{sess.LockExclusive(ctx, "z"), "runtime: A has no Lock(z) operation"},
		{sess.Unlock("z"), "runtime: A has no Unlock(z) operation"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("got %v, want %q", c.err, c.want)
		}
	}
	// Names built fresh, not the database's own strings.
	x, y := strings.Clone("x"), strings.Clone("y")
	if err := sess.LockExclusive(ctx, x); err != nil {
		t.Fatal(err)
	}
	if held := sess.Held(); len(held) != 1 || held[0] != "x" {
		t.Fatalf("Held after Lock(clone of x) = %v", held)
	}
	for _, step := range []func() error{
		func() error { return sess.LockExclusive(ctx, y) },
		func() error { return sess.Unlock(x) },
		func() error { return sess.Unlock(y) },
		sess.Commit,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLockServicePartialOrderEnforced: the session rejects operations the
// registered class's partial order does not allow yet.
func TestLockServicePartialOrderEnforced(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Ux", "Uy")); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LockExclusive(ctx, "y"); err == nil {
		t.Fatal("Ly before Lx accepted against the chain A")
	}
	if err := sess.LockExclusive(ctx, "z"); err == nil {
		t.Fatal("lock on an entity outside the class accepted")
	}
	if err := sess.Commit(); err == nil {
		t.Fatal("commit of an incomplete session accepted")
	}
	if err := sess.LockExclusive(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(sess.Held()) != 0 {
		t.Fatal("abort left locks held")
	}
}

// TestCertifiedSessionAllocs: a certified in-process transaction pays only
// for its 32-byte session handle — the session state, with the engine's
// session embedded, is the class's recycled spare, and there is no abort
// signal, no held-set map, no per-operation label, no release closure, no
// wire or trace state.
func TestCertifiedSessionAllocs(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db)
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
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 1 {
		t.Fatalf("certified session cycle = %v allocs, want <= 1", allocs)
	}
	const runs = 400
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		cycle()
	}
	goruntime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs; bytes > 32 {
		t.Fatalf("certified session cycle = %.0f B, want <= 32 (the session handle)", bytes)
	}
}

// TestStatsConcurrentWithClose: Stats is documented safe on a live
// service, concurrently with Close, and after Close. Drive real traffic
// (with trace sampling on every op, so every metrics source is live),
// hammer Stats from readers while Close races the last sessions, and
// check the conservation identities on the post-Close snapshot.
func TestStatsConcurrentWithClose(t *testing.T) {
	db := xyzDB()
	svc, err := distlock.Open(db, distlock.WithMultiplicity(2), distlock.WithTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Register(ctx, chain(db, "A", "Lx", "Ly", "Ux", "Uy")); err != nil {
		t.Fatal(err)
	}

	const sessions = 40
	var drove sync.WaitGroup
	for i := 0; i < sessions; i++ {
		drove.Add(1)
		go func() {
			defer drove.Done()
			sess, err := svc.Begin(ctx, "A")
			if err != nil {
				return // Close may already have won the race
			}
			// Ignore errors: a session caught by Close mid-drive aborts.
			_ = sess.Drive(ctx)
		}()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := svc.Stats()
				if st.Certified.Table.Held < 0 {
					t.Errorf("negative held count in live snapshot: %+v", st.Certified.Table)
					return
				}
			}
		}()
	}

	// Let some sessions through, then Close while readers and any
	// stragglers are still running.
	time.Sleep(2 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	drove.Wait()
	close(stop)
	readers.Wait()

	// Stats after Close still works and the ledgers balance: every begun
	// session ended in exactly one commit, abort or discard (a session
	// caught by Close), and committed sessions released what they locked —
	// only a session Close cut short (at most 2 locks each) can leave
	// grant records behind, which died with the table.
	st := svc.Stats()
	ended := st.Certified.Commits + st.Certified.Aborts + st.Certified.Discarded +
		st.Fallback.Commits + st.Fallback.Aborts + st.Fallback.Discarded
	if st.Begun != ended {
		t.Fatalf("begun %d != commits+aborts+discards %d after Close", st.Begun, ended)
	}
	tab := st.Certified.Table
	cut := st.Begun - st.Certified.Commits
	if leaked := tab.Grants - tab.Releases; leaked < 0 || leaked > 2*cut {
		t.Fatalf("certified tier leaked holds: %d grants vs %d releases with %d sessions cut short by Close",
			tab.Grants, tab.Releases, cut)
	}
	if st.Certified.Commits > 0 {
		if tab.Grants == 0 {
			t.Fatal("committed sessions granted no locks")
		}
		if len(st.Certified.TraceStages) == 0 {
			t.Fatal("trace sampling enabled but the stage histograms are empty")
		}
	}
}
