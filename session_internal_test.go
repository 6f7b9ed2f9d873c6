package distlock

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"distlock/internal/runtime"
)

// TestSessionFootprint: a certified in-process transaction is one
// allocation, the facade Session with its engine session embedded, and
// that allocation fits Go's 176-byte size class.
func TestSessionFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Session{}); got > 176 {
		t.Fatalf("distlock.Session is %d bytes, want <= 176 (the 176-byte size class); "+
			"new wire, pipeline or trace state belongs in runtime's sessionExtra", got)
	}
}

// epochOf reads the attempt epoch of a session's embedded engine session,
// which no layer exports.
func epochOf(s *Session) int64 {
	return reflect.ValueOf(&s.inner).Elem().FieldByName("key").FieldByName("Epoch").Int()
}

// TestBeginRetryEmbeddedSession: BeginRetry initialises a fresh embedded
// engine session from the ended handle's identity and keeps no pointer
// into it. The retry has the same ID and the next epoch; the old handle
// stays inert — Commit reports the session done and Abort is a no-op —
// and neither call releases the retry's locks.
func TestBeginRetryEmbeddedSession(t *testing.T) {
	db := NewDDB()
	db.MustEntity("x", "s1")
	db.MustEntity("y", "s2")
	svc, err := Open(db, WithMultiplicity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	// Lx and Ly are incomparable, so two copies can deadlock: at
	// multiplicity 2 the class goes to the wound-wait fallback tier.
	b := NewBuilder(db, "W")
	lx, ux := b.Lock("x"), b.Unlock("x")
	ly, uy := b.Lock("y"), b.Unlock("y")
	b.Arc(lx, ux)
	b.Arc(ly, uy)
	b.Arc(lx, uy)
	b.Arc(ly, ux)
	res, err := svc.Register(ctx, b.MustFreeze())
	if err != nil || res.Admitted {
		t.Fatalf("class not on the fallback tier: %+v, %v", res, err)
	}

	older, err := svc.Begin(ctx, "W")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.Begin(ctx, "W")
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.LockExclusive(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- older.LockExclusive(ctx, "x") }()
	select {
	case <-victim.inner.Doomed():
	case <-time.After(2 * time.Second):
		t.Fatal("younger holder never wounded")
	}
	if err := victim.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("older requester: %v", err)
	}
	if err := older.Abort(); err != nil {
		t.Fatal(err)
	}

	retry, err := svc.BeginRetry(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID() != victim.ID() || epochOf(retry) != epochOf(victim)+1 {
		t.Fatalf("retry = id %d epoch %d, want id %d epoch %d",
			retry.ID(), epochOf(retry), victim.ID(), epochOf(victim)+1)
	}
	for _, ent := range []string{"x", "y"} {
		if err := retry.LockExclusive(ctx, ent); err != nil {
			t.Fatal(err)
		}
	}
	if err := victim.Commit(); !errors.Is(err, runtime.ErrSessionDone) {
		t.Fatalf("Commit on the retried handle = %v, want the session-done error", err)
	}
	if err := victim.Abort(); err != nil {
		t.Fatalf("Abort on the retried handle = %v, want a no-op", err)
	}

	// The retry still holds both locks: a younger session parks behind it
	// on each until its deadline.
	probe, err := svc.Begin(ctx, "W")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range []string{"x", "y"} {
		pctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		err := probe.LockExclusive(pctx, ent)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("probe LockExclusive(%s) = %v, want it to block behind the retry", ent, err)
		}
	}
	if err := probe.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, ent := range []string{"x", "y"} {
		if err := retry.Unlock(ent); err != nil {
			t.Fatal(err)
		}
	}
	if err := retry.Commit(); err != nil {
		t.Fatal(err)
	}
}
