// Quickstart: run the paper's program as a live lock service. Build
// distributed transaction classes, Register them (the service certifies
// the mix with the polynomial Theorem 3/4 tests and pins each class to
// the certified no-deadlock-handling tier or the wound-wait fallback
// tier), then drive transactions step-by-step through Sessions — with a
// context-cancelled lock wait at the end.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"distlock"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example with its output stream injected, so the
// example's test can drive it.
func run(w io.Writer) error {
	ctx := context.Background()

	// A two-site database: x at site1, y at site2.
	db := distlock.NewDDB()
	db.MustEntity("x", "site1")
	db.MustEntity("y", "site2")

	// T1 locks x, then y, then releases both — a totally ordered program.
	b1 := distlock.NewBuilder(db, "T1")
	b1.Chain(b1.Lock("x"), b1.Lock("y"), b1.Unlock("x"), b1.Unlock("y"))
	t1 := b1.MustFreeze()

	// T2 follows the same lock order: the pair is certifiable.
	b2 := distlock.NewBuilder(db, "T2")
	b2.Chain(b2.Lock("x"), b2.Lock("y"), b2.Unlock("x"), b2.Unlock("y"))
	t2 := b2.MustFreeze()

	// T3 locks y first: {T1, T3} can deadlock, so T3 cannot join the
	// certified mix.
	b3 := distlock.NewBuilder(db, "T3")
	b3.Chain(b3.Lock("y"), b3.Lock("x"), b3.Unlock("y"), b3.Unlock("x"))
	t3 := b3.MustFreeze()

	// R is a READER: it takes both entities in shared mode — and in the
	// "wrong" order. Shared locks do not conflict with each other (only
	// with writers), so the conflict-aware certification still admits it:
	// its only interactions are R/W conflicts against T1 and T2, which
	// follow the common x-before-y funnel.
	br := distlock.NewBuilder(db, "R")
	br.Chain(br.LockShared("x"), br.LockShared("y"), br.Unlock("x"), br.Unlock("y"))
	r := br.MustFreeze()

	// Open the lock service and register the classes. Registration is the
	// admission decision: Theorem 3 on every interacting pair, Theorem 4 on
	// the interaction-graph cycles — incremental, never from scratch.
	svc, err := distlock.Open(db)
	if err != nil {
		return err
	}
	defer svc.Close()

	for _, t := range []*distlock.Transaction{t1, t2, t3, r} {
		res, err := svc.Register(ctx, t)
		if err != nil {
			return err
		}
		if res.Admitted {
			fmt.Fprintf(w, "%s: certified — runs with NO deadlock handling\n", t.Name())
		} else {
			fmt.Fprintf(w, "%s: fallback (%s) — %s\n", t.Name(), res.Strategy, res.Reason)
		}
	}

	// Drive one T1 transaction by hand: the session enforces T1's partial
	// order, each Lock blocks until the owning site grants the entity.
	sess, err := svc.Begin(ctx, "T1")
	if err != nil {
		return err
	}
	steps := []struct {
		op     string
		entity string
	}{{"Lock", "x"}, {"Lock", "y"}, {"Unlock", "x"}, {"Unlock", "y"}}
	for _, s := range steps {
		if s.op == "Lock" {
			err = sess.LockExclusive(ctx, s.entity)
		} else {
			err = sess.Unlock(s.entity)
		}
		if err != nil {
			return err
		}
	}
	if err := sess.Commit(); err != nil {
		return err
	}
	fmt.Fprintln(w, "T1 session committed")

	// Cancellation propagates into lock waits: hold x with a T1 session,
	// then watch a T2 session's Lock("x") return when its context expires.
	holder, err := svc.Begin(ctx, "T1")
	if err != nil {
		return err
	}
	if err := holder.LockExclusive(ctx, "x"); err != nil {
		return err
	}
	waiter, err := svc.Begin(ctx, "T2")
	if err != nil {
		return err
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := waiter.Lock(short, "x", distlock.Exclusive); err != nil {
		fmt.Fprintf(w, "T2 blocked on x, cancelled: %v\n", err)
	}
	if err := waiter.Abort(); err != nil {
		return err
	}
	if err := holder.Abort(); err != nil {
		return err
	}

	fmt.Fprintf(w, "stats: %+v\n", svc.Stats().Admission)
	return nil
}
