package distlock

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// TestSessionFootprint: a certified in-process transaction allocates its
// handle alone, which fits Go's 32-byte size class; the recycled state, with
// the engine session embedded, stays in the 160-byte class.
func TestSessionFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Session{}); got > 32 {
		t.Fatalf("distlock.Session is %d bytes, want <= 32 (the 32-byte size class); "+
			"session state belongs in sessionState", got)
	}
	if got := unsafe.Sizeof(sessionState{}); got > 160 {
		t.Fatalf("distlock.sessionState is %d bytes, want <= 160 (the 160-byte size class); "+
			"new wire, pipeline or trace state belongs in runtime's sessionExtra", got)
	}
}

// slotFixture opens a service at multiplicity 1 with the certified class
// A = Lx Ly Ux Uy registered, and returns the service and A's entry.
func slotFixture(t *testing.T) (*LockService, *svcClass) {
	t.Helper()
	db := NewDDB()
	db.MustEntity("x", "s1")
	db.MustEntity("y", "s2")
	b := NewBuilder(db, "A")
	b.Chain(b.Lock("x"), b.Lock("y"), b.Unlock("x"), b.Unlock("y"))
	svc, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if res, err := svc.Register(context.Background(), b.MustFreeze()); err != nil || !res.Admitted {
		t.Fatalf("class not certified: %+v, %v", res, err)
	}
	return svc, svc.classes["A"]
}

// TestEndedHandleKeepsOffRecycledSession: a committed session's state
// becomes its class's spare, and the class's next Begin draws it. The
// ended handle must then answer every method from its own fields and the
// state's generation word — ErrSessionDone from Lock, Unlock, Commit and
// Drive, a nil Abort, an empty Held, its own Class, Template, Certified
// and ID — while the session that drew the state runs untouched. Run it under
// -race: the ended handle is used from a second goroutine, so a method
// that touched the recycled state would race the live session's writes.
func TestEndedHandleKeepsOffRecycledSession(t *testing.T) {
	svc, c := slotFixture(t)
	ctx := context.Background()
	run := func(s *Session) error {
		for _, e := range []string{"x", "y"} {
			if err := s.LockExclusive(ctx, e); err != nil {
				return err
			}
		}
		for _, e := range []string{"x", "y"} {
			if err := s.Unlock(e); err != nil {
				return err
			}
		}
		return s.Commit()
	}
	ended, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(ended); err != nil {
		t.Fatal(err)
	}
	live, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if live.st != ended.st {
		t.Fatal("the class's next Begin did not draw the state its last session left")
	}
	if ended.ID() == live.ID() {
		t.Fatalf("the ended and the live session share instance id %d", live.ID())
	}
	stop := make(chan struct{})
	probed := make(chan error, 1)
	go func() {
		probed <- func() error {
			for {
				for name, err := range map[string]error{
					"Lock":   ended.LockExclusive(ctx, "x"),
					"Unlock": ended.Unlock("x"),
					"Commit": ended.Commit(),
					"Drive":  ended.Drive(ctx),
				} {
					if !errors.Is(err, ErrSessionDone) {
						return fmt.Errorf("ended session: %s = %v, want ErrSessionDone", name, err)
					}
				}
				if err := ended.Abort(); err != nil {
					return fmt.Errorf("ended session: Abort = %v, want the no-op", err)
				}
				if held := ended.Held(); len(held) != 0 {
					return fmt.Errorf("ended session: Held = %v, want none", held)
				}
				if ended.Class() != "A" || ended.Template() != c.txn || !ended.Certified() || ended.ID() == live.ID() {
					return fmt.Errorf("ended session: Class %q, Template %v, Certified %v, ID %d: want its own",
						ended.Class(), ended.Template(), ended.Certified(), ended.ID())
				}
				select {
				case <-stop:
					return nil
				default:
				}
			}
		}()
	}()
	for _, e := range []string{"x", "y"} {
		if err := live.LockExclusive(ctx, e); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let the probe run beside a live hold
	}
	if held := live.Held(); len(held) != 2 {
		t.Fatalf("live session holds %v, want x and y", held)
	}
	for _, e := range []string{"x", "y"} {
		if err := live.Unlock(e); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-probed; err != nil {
		t.Fatal(err)
	}
	if err := live.Commit(); err != nil {
		t.Fatalf("the session that drew the recycled state: %v", err)
	}
	st := svc.Stats()
	if st.Certified.Commits != st.Begun || st.Certified.Aborts != 0 {
		t.Fatalf("%d begun, %d commits, %d aborts: the ended session's calls must change nothing",
			st.Begun, st.Certified.Commits, st.Certified.Aborts)
	}
	if got := c.state.Load(); got != 0 {
		t.Fatalf("idle class: state %#x, want 0", got)
	}
}

// blocked starts Begin(ctx, class) on a goroutine and gives it a moment
// to block on the class's full slots; its result arrives on the channel.
func blocked(ctx context.Context, svc *LockService, class string) <-chan error {
	got := make(chan error, 1)
	go func() {
		s, err := svc.Begin(ctx, class)
		if err == nil {
			err = s.Drive(context.Background())
		}
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	return got
}

// TestParkedBeginCancel: a Begin waiting on a full class returns ctx.Err()
// when its context ends and takes no slot with it.
func TestParkedBeginCancel(t *testing.T) {
	svc, c := slotFixture(t)
	ctx := context.Background()
	holder, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	got := blocked(cctx, svc, "A")
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiting Begin = %v, want context.Canceled", err)
	}
	if err := holder.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	s, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.state.Load(); got != 0 {
		t.Fatalf("idle class: state %#x, want 0", got)
	}
}

// TestParkedBeginClose: Close wakes a waiting Begin with ErrServiceClosed.
func TestParkedBeginClose(t *testing.T) {
	svc, _ := slotFixture(t)
	ctx := context.Background()
	if _, err := svc.Begin(ctx, "A"); err != nil {
		t.Fatal(err)
	}
	got := blocked(ctx, svc, "A")
	svc.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrServiceClosed) {
			t.Fatalf("waiting Begin after Close = %v, want ErrServiceClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a Begin waiting")
	}
}

// TestParkedBeginOutlivesOtherDeregister: Deregister of one class wakes
// the Begins waiting on every class; a Begin whose class is still
// registered waits on and takes the next free slot.
func TestParkedBeginOutlivesOtherDeregister(t *testing.T) {
	svc, _ := slotFixture(t)
	ctx := context.Background()
	b := NewBuilder(svc.ddb, "B")
	b.Chain(b.Lock("y"), b.Unlock("y"))
	if _, err := svc.Register(ctx, b.MustFreeze()); err != nil {
		t.Fatal(err)
	}
	holder, err := svc.Begin(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	wait, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	got := blocked(wait, svc, "A")
	if !svc.Deregister("B") {
		t.Fatal("Deregister(B) = false")
	}
	select {
	case err := <-got:
		t.Fatalf("Begin(A) returned %v on Deregister(B) while A was full", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := holder.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("Begin(A) after the slot freed: %v", err)
	}
}
