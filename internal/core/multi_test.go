package core

import (
	"testing"

	"distlock/internal/model"
	"distlock/internal/schedule"
	"distlock/internal/workload"
)

// ringSystem builds the classic k-transaction deadlock ring: Ti locks e_i
// then e_{i+1 mod k}, two-phase. Every pair is safe+DF (pairs share one
// entity), but the whole system deadlocks around the cycle.
func ringSystem(k int) *model.System {
	d := model.NewDDB()
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = string(rune('a' + i))
		d.MustEntity(names[i], "s"+names[i])
	}
	txns := make([]*model.Transaction, k)
	for i := 0; i < k; i++ {
		a, b := names[i], names[(i+1)%k]
		txns[i] = buildChain(d, "T"+names[i], "L"+a+" L"+b+" U"+a+" U"+b)
	}
	return model.MustSystem(d, txns...)
}

// TestSystemSafeDFUnsafeWithoutDeadlock is the regression fixture for a
// violation the prefix construction used to miss: a triangle of pairwise-
// certified transactions that is deadlock-free yet UNSAFE. The violating
// schedule reuses an entity its cycle predecessor's prefix has already
// RELEASED (T2 locks and unlocks e0, then T1 locks e0 and holds e1; T3
// holds e3): D gains the cycle T2 ->(e0) T1 ->(e1) T3 ->(e3) T2 with no
// transaction ever blocked. The construction must therefore avoid only
// what the predecessor still holds (its Y set), not its full entity set.
func TestSystemSafeDFUnsafeWithoutDeadlock(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("e0", "s0")
	d.MustEntity("e1", "s1")
	d.MustEntity("e2", "s0")
	d.MustEntity("e3", "s1")
	fork := func(name, first, second string) *model.Transaction {
		// L<first> -> { U<first>, L<second> -> U<second> }: the unlock of
		// the first entity is incomparable with the second entity's use.
		b := model.NewBuilder(d, name)
		lf := b.Lock(first)
		uf := b.Unlock(first)
		ls := b.Lock(second)
		us := b.Unlock(second)
		b.Arc(lf, uf)
		b.Arc(lf, ls)
		b.Arc(ls, us)
		return b.MustFreeze()
	}
	sys := model.MustSystem(d,
		fork("T1", "e0", "e1"),
		fork("T2", "e0", "e3"),
		buildChain(d, "T3", "Le3 Le1 Ue1 Ue3"),
	)
	// Sanity: deadlock-free, all pairs certified — the violation is pure
	// unsafety, invisible to both the pair phase and deadlock search.
	if df, err := IsDeadlockFreeBrute(sys, BruteOptions{}); err != nil || !df {
		t.Fatalf("fixture not deadlock-free: %v %v", df, err)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if rep := PairSafeDF(sys.Txns[i], sys.Txns[j]); !rep.SafeDF {
				t.Fatalf("fixture pair (%d,%d) fails Theorem 3: %s", i, j, rep.Reason)
			}
		}
	}
	want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Fatal("fixture unexpectedly safe per the brute oracle")
	}
	ok, viol := SystemSafeDF(sys)
	if ok {
		t.Fatal("Theorem 4 missed the unsafe-but-deadlock-free violation")
	}
	if viol == nil || viol.Pair != nil {
		t.Fatalf("want a cycle violation, got %v", viol)
	}
	// The witness must be a legal schedule with cyclic D.
	ex, err := schedule.Replay(sys, viol.BuildSchedule())
	if err != nil {
		t.Fatalf("violation schedule illegal: %v", err)
	}
	if schedule.DigraphD(ex).IsAcyclic() {
		t.Fatal("violation schedule has acyclic D")
	}
}

func TestSystemSafeDFRingFails(t *testing.T) {
	sys := ringSystem(3)
	// Sanity: every pair passes Theorem 3.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if len(model.CommonEntities(sys.Txns[i], sys.Txns[j])) == 0 {
				continue
			}
			if rep := PairSafeDF(sys.Txns[i], sys.Txns[j]); !rep.SafeDF {
				t.Fatalf("ring pair (%d,%d) fails Theorem 3: %s", i, j, rep.Reason)
			}
		}
	}
	ok, viol := SystemSafeDF(sys)
	if ok {
		t.Fatal("3-ring accepted as safe+DF")
	}
	if viol == nil || viol.Pair != nil {
		t.Fatalf("want cycle violation, got %v", viol)
	}
	if len(viol.Cycle) != 3 {
		t.Fatalf("violating cycle = %v", viol.Cycle)
	}
	// The witness schedule must be legal and have cyclic D(S').
	steps := viol.BuildSchedule()
	ex, err := schedule.Replay(sys, steps)
	if err != nil {
		t.Fatalf("violation schedule illegal: %v", err)
	}
	if schedule.DigraphD(ex).IsAcyclic() {
		t.Fatal("violation schedule has acyclic D(S')")
	}
}

func TestSystemSafeDFOrderedRingPasses(t *testing.T) {
	// Same ring topology but locks acquired in global entity order: T_last
	// locks e_0 before e_{k-1}. Safe and deadlock-free.
	k := 3
	d := model.NewDDB()
	names := []string{"a", "b", "c"}
	for _, n := range names {
		d.MustEntity(n, "s"+n)
	}
	txns := []*model.Transaction{
		buildChain(d, "T1", "La Lb Ua Ub"),
		buildChain(d, "T2", "Lb Lc Ub Uc"),
		buildChain(d, "T3", "La Lc Ua Uc"), // ordered: a before c
	}
	sys := model.MustSystem(d, txns...)
	ok, viol := SystemSafeDF(sys)
	if !ok {
		t.Fatalf("ordered ring rejected: %v", viol)
	}
	_ = k
}

func TestSystemSafeDFPairFailureShortCircuits(t *testing.T) {
	sys := crossLockSystem()
	ok, viol := SystemSafeDF(sys)
	if ok {
		t.Fatal("cross-lock pair accepted")
	}
	if viol == nil || viol.Pair == nil {
		t.Fatalf("want pair violation, got %v", viol)
	}
}

func TestSystemSafeDFDisjointTransactions(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("a", "s1")
	d.MustEntity("b", "s2")
	d.MustEntity("c", "s3")
	sys := model.MustSystem(d,
		buildChain(d, "T1", "La Ua"),
		buildChain(d, "T2", "Lb Ub"),
		buildChain(d, "T3", "Lc Uc"))
	if ok, viol := SystemSafeDF(sys); !ok {
		t.Fatalf("disjoint system rejected: %v", viol)
	}
}

// TestTheorem4AgainstBrute is the headline validation: the polynomial
// cycle algorithm must agree with the exhaustive Lemma-1 oracle on random
// three-transaction systems.
func TestTheorem4AgainstBrute(t *testing.T) {
	agree, unsafeCount := 0, 0
	for seed := int64(0); seed < 80; seed++ {
		sys := workload.MustGenerate(workload.Config{
			Sites: 2, EntitiesPerSite: 2, NumTxns: 3, EntitiesPerTxn: 2,
			Policy: workload.Policy(seed % 3), CrossArcProb: 0.3, Seed: seed,
		})
		want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, viol := SystemSafeDF(sys)
		if got != want {
			t.Fatalf("seed %d: Theorem 4 says %v, brute says %v\nT1=%v\nT2=%v\nT3=%v",
				seed, got, want, sys.Txns[0], sys.Txns[1], sys.Txns[2])
		}
		agree++
		if !want {
			unsafeCount++
			// Validate cycle witnesses end-to-end.
			if viol != nil && viol.Pair == nil {
				steps := viol.BuildSchedule()
				ex, err := schedule.Replay(sys, steps)
				if err != nil {
					t.Fatalf("seed %d: violation schedule illegal: %v", seed, err)
				}
				if schedule.DigraphD(ex).IsAcyclic() {
					t.Fatalf("seed %d: violation schedule acyclic D", seed)
				}
			}
		}
	}
	if unsafeCount == 0 || unsafeCount == agree {
		t.Fatalf("degenerate test corpus: %d/%d unsafe", unsafeCount, agree)
	}
}

// TestTheorem4FourTransactions runs the agreement test on 4-transaction
// systems (more cycle shapes: triangles and squares).
func TestTheorem4FourTransactions(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		sys := workload.MustGenerate(workload.Config{
			Sites: 2, EntitiesPerSite: 2, NumTxns: 4, EntitiesPerTxn: 2,
			Policy: workload.PolicyTwoPhase, Seed: seed,
		})
		want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := SystemSafeDF(sys)
		if got != want {
			t.Fatalf("seed %d: Theorem 4 %v vs brute %v\n%v\n%v\n%v\n%v",
				seed, got, want, sys.Txns[0], sys.Txns[1], sys.Txns[2], sys.Txns[3])
		}
	}
}

// TestTheorem5ViaTheorem4 checks that for copies, SystemSafeDF agrees with
// CopiesSafeDF (Theorem 5's proof runs through the Theorem 4 machinery).
func TestTheorem5ViaTheorem4(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		sys, err := workload.CopiesOf(workload.Config{
			Sites: 2, EntitiesPerSite: 1, EntitiesPerTxn: 2, NumTxns: 1,
			Policy: workload.Policy(seed % 3), Seed: seed,
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := SystemSafeDF(sys)
		want := CopiesSafeDF(sys.Txns[0], 3)
		if got != want {
			t.Fatalf("seed %d: Theorem 4 on 3 copies %v vs Theorem 5 %v for %v",
				seed, got, want, sys.Txns[0])
		}
	}
}

func TestOrientations(t *testing.T) {
	for _, cycle := range [][]int{{1, 2, 3}, {4, 0, 2, 7, 5}} {
		k := len(cycle)
		want := orientations(cycle)
		if len(want) != 2*k {
			t.Fatalf("%d reference orientations of a %d-cycle", len(want), k)
		}
		c := CycleChecker{ord: make([]int, k)}
		n := 0
		for _, backward := range []bool{false, true} {
			for r := 0; r < k; r++ {
				c.orient(k, r, backward)
				for i, p := range c.ord {
					if cycle[p] != want[n][i] {
						t.Fatalf("traversal %d of %v visits positions %v, reference order %v", n, cycle, c.ord, want[n])
					}
				}
				n++
			}
		}
	}
}
