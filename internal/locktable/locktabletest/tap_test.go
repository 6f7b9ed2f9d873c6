package locktabletest

import (
	"context"
	"testing"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

func oneEntity() (*model.DDB, model.EntityID) {
	ddb := model.NewDDB()
	return ddb, ddb.MustEntity("x", "s1")
}

func inst(id int) locktable.Instance { return locktable.Instance{Key: locktable.InstKey{ID: id}} }

// TestTapRecordsGrantOrderAndModes: alternating shared and exclusive
// grants of one entity are recorded in grant order with their modes, and
// the shared ones still take the sharded table's CAS fast path.
func TestTapRecordsGrantOrderAndModes(t *testing.T) {
	ddb, x := oneEntity()
	m := obs.NewTableMetrics()
	tap := New(locktable.NewSharded(ddb, locktable.Config{Metrics: m}))
	defer tap.Close()
	ctx := context.Background()
	var want []Grant
	for id := 1; id <= 5; id++ {
		mode := locktable.Shared
		if id%2 == 0 {
			mode = locktable.Exclusive
		}
		if id == 5 {
			if ok, err := tap.TryAcquire(inst(id), x, mode); !ok || err != nil {
				t.Fatalf("TryAcquire = %v, %v", ok, err)
			}
		} else if err := tap.Acquire(ctx, inst(id), x, mode); err != nil {
			t.Fatal(err)
		}
		if err := tap.Release(x, inst(id).Key); err != nil {
			t.Fatal(err)
		}
		want = append(want, Grant{Entity: x, Inst: id, Mode: mode})
	}
	got := tap.Grants()
	if len(got) != len(want) {
		t.Fatalf("grants %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
	if n := tap.Violations(); n != 0 {
		t.Fatalf("%d violations on a correct table", n)
	}
	if m.Snapshot().FastPathHits == 0 {
		t.Fatal("the tap disarmed the shared fast path")
	}
}

// grantAll is a broken table: it grants every request at once.
type grantAll struct{ locktable.Table }

func (grantAll) Acquire(context.Context, locktable.Instance, model.EntityID, locktable.Mode) error {
	return nil
}

func (grantAll) TryAcquire(locktable.Instance, model.EntityID, locktable.Mode) (bool, error) {
	return true, nil
}

// TestTapFlagsConflictingGrants: the holder book catches a table that
// grants a lock its holder still has, in either mode, but not readers
// sharing, a holder's duplicate acquire, or a release of a lock nobody
// holds.
func TestTapFlagsConflictingGrants(t *testing.T) {
	ddb, x := oneEntity()
	tap := New(grantAll{locktable.NewSharded(ddb, locktable.Config{})})
	defer tap.Close()
	ctx := context.Background()
	step := func(id int, mode locktable.Mode, want int) {
		t.Helper()
		if err := tap.Acquire(ctx, inst(id), x, mode); err != nil {
			t.Fatal(err)
		}
		if n := tap.Violations(); n != want {
			t.Fatalf("after instance %d's %v grant: %d violations, want %d", id, mode, n, want)
		}
	}
	tap.Release(x, inst(9).Key) // nobody holds it: no-op
	step(1, locktable.Shared, 0)
	step(2, locktable.Shared, 0)
	step(2, locktable.Shared, 0) // duplicate: records nothing
	step(3, locktable.Exclusive, 1)
	tap.ReleaseAll([]model.EntityID{x}, inst(1).Key)
	tap.Release(x, inst(2).Key)
	tap.Release(x, inst(3).Key)
	step(4, locktable.Exclusive, 1)
	if ok, _ := tap.TryAcquire(inst(5), x, locktable.Shared); !ok {
		t.Fatal("grantAll refused a try")
	}
	if n := tap.Violations(); n != 2 {
		t.Fatalf("a shared grant beside an exclusive holder: %d violations, want 2", n)
	}
	if n := len(tap.Grants()); n != 5 {
		t.Fatalf("%d grants recorded, want 5", n)
	}
}
