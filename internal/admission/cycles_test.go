package admission

import (
	"testing"

	"distlock/internal/model"
	"distlock/internal/workload"
)

// TestReplayIsDeterministic replays event sequences on fresh services and
// requires every counter to repeat — the cycle counts included, which
// depend on the order the expanded graph is built and its cycles
// enumerated in.
func TestReplayIsDeterministic(t *testing.T) {
	replay20 := func(t *testing.T, ddb *model.DDB, opts Options, events []workload.ChurnEvent) Stats {
		t.Helper()
		var first Stats
		for i := 0; i < 20; i++ {
			svc := New(ddb, opts)
			for _, ev := range events {
				if !ev.Arrive {
					svc.Evict(ev.Txn.Name())
				} else if _, err := svc.Admit(ctx, ev.Txn); err != nil {
					t.Fatal(err)
				}
			}
			if got := svc.Stats(); i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("replay %d: stats %+v, first replay %+v", i+1, got, first)
			}
		}
		return first
	}

	t.Run("churn", func(t *testing.T) {
		cfg := workload.Config{
			Sites: 8, EntitiesPerSite: 8, EntitiesPerTxn: 3,
			Policy: workload.PolicyChurn, Seed: 1000003,
		}
		ddb, trace, err := workload.ChurnTrace(cfg, 100, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		st := replay20(t, ddb, Options{Multiplicity: 2, CycleBudget: 32}, trace)
		if st.CyclesChecked == 0 || st.BudgetExhausted == 0 || st.Evicted == 0 {
			t.Fatalf("trace exercises too little: %+v", st)
		}
	})

	// A hub H with four later neighbours L1..L4, then a candidate C that
	// closes a triangle C-H-Li with each of them, of which only C-H-L3
	// deadlocks (C takes c3 before h). How many cycles are enumerated before
	// that one depends on the order H's neighbours are visited in.
	t.Run("hub", func(t *testing.T) {
		d := model.NewDDB()
		for _, e := range []string{"h", "x1", "x2", "x3", "x4", "c1", "c2", "c3", "c4"} {
			d.MustEntity(e, "s"+e)
		}
		var arrivals []workload.ChurnEvent
		for _, txn := range []*model.Transaction{
			chainTxn(d, "H", "Lh", "Lx1", "Lx2", "Lx3", "Lx4", "Uh", "Ux1", "Ux2", "Ux3", "Ux4"),
			chainTxn(d, "L1", "Lx1", "Lc1", "Ux1", "Uc1"),
			chainTxn(d, "L2", "Lx2", "Lc2", "Ux2", "Uc2"),
			chainTxn(d, "L3", "Lx3", "Lc3", "Ux3", "Uc3"),
			chainTxn(d, "L4", "Lx4", "Lc4", "Ux4", "Uc4"),
			chainTxn(d, "C", "Lc3", "Lh", "Lc1", "Lc2", "Lc4", "Uc3", "Uh", "Uc1", "Uc2", "Uc4"),
		} {
			arrivals = append(arrivals, workload.ChurnEvent{Arrive: true, Txn: txn})
		}
		st := replay20(t, d, Options{Multiplicity: 2}, arrivals)
		if st.Admitted != 5 || st.Rejected != 1 || st.CyclesChecked == 0 {
			t.Fatalf("want H, L1..L4 admitted and C rejected on a cycle, got %+v", st)
		}
	})
}

func TestCycleKey(t *testing.T) {
	key := func(cycle []int, m int, shapes []uint32) string {
		return string(cycleKey(nil, cycle, m, shapes))
	}
	distinct := []uint32{0, 1, 2, 3, 4, 5, 6}

	// All 2k traversals of one cycle share a key.
	cycle := []int{3, 0, 5, 1, 6}
	want := key(cycle, 1, distinct)
	k := len(cycle)
	for r := 0; r < k; r++ {
		fwd, back := make([]int, k), make([]int, k)
		for i := range cycle {
			fwd[i] = cycle[(r+i)%k]
			back[i] = cycle[(r+k-i)%k]
		}
		if key(fwd, 1, distinct) != want || key(back, 1, distinct) != want {
			t.Fatalf("rotation %d of %v: keys differ (%v, %v)", r, cycle, fwd, back)
		}
	}

	// Two cyclic orders of one set of classes are different questions.
	if key([]int{0, 1, 2, 3}, 1, distinct) == key([]int{0, 2, 1, 3}, 1, distinct) {
		t.Fatal("orders 0-1-2-3 and 0-2-1-3 collide")
	}
	if key([]int{0, 1, 2}, 1, distinct) == key([]int{0, 1, 2, 3}, 1, distinct) {
		t.Fatal("a 3-cycle and a 4-cycle collide")
	}

	// At multiplicity 2 vertex v is a copy of class v/2: a cycle through
	// other copies of the same classes is the same question, one through a
	// class twice is not.
	if key([]int{0, 2, 4}, 2, distinct) != key([]int{1, 3, 5}, 2, distinct) {
		t.Fatal("copy-renamed cycle misses")
	}
	if key([]int{0, 2, 4, 6}, 2, distinct) == key([]int{0, 2, 1, 6}, 2, distinct) {
		t.Fatal("a cycle through both copies of class 0 collides with one through class 2")
	}

	// Classes with one fingerprint share a shape number, so cycles through
	// either are one question.
	d := xyzDDB()
	a := chainTxn(d, "A", "Lx", "Ly", "Ux", "Uy")
	b := chainTxn(d, "B", "Ly", "Lz", "Uy", "Uz")
	a2 := chainTxn(d, "A2", "Lx", "Ly", "Ux", "Uy")
	live := []*class{{fp: FingerprintOf(a)}, {fp: FingerprintOf(b)}, {fp: FingerprintOf(a2)}}
	shapes := shapeIDs(live, FingerprintOf(b))
	if shapes[0] != shapes[2] || shapes[1] != shapes[3] || shapes[0] == shapes[1] {
		t.Fatalf("shape numbers %v, want A=A2, B=candidate, A≠B", shapes)
	}
	if key([]int{0, 1, 3}, 1, shapes) != key([]int{2, 3, 1}, 1, shapes) {
		t.Fatal("cycles through syntactically equal classes get different keys")
	}
}
