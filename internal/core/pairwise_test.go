package core

import (
	"testing"

	"distlock/internal/model"
	"distlock/internal/workload"
)

func TestPairSafeDFOrderedChains(t *testing.T) {
	sys := orderedSystem()
	rep := PairSafeDF(sys.Txns[0], sys.Txns[1])
	if !rep.SafeDF {
		t.Fatalf("ordered pair rejected: %s", rep.Reason)
	}
	if sys.DDB.EntityName(rep.FirstLock) != "x" {
		t.Fatalf("first lock = %v, want x", rep.FirstLock)
	}
}

func TestPairSafeDFCrossLockFailsCondition1(t *testing.T) {
	sys := crossLockSystem()
	rep := PairSafeDF(sys.Txns[0], sys.Txns[1])
	if rep.SafeDF {
		t.Fatal("cross-lock pair accepted")
	}
	if rep.FirstLock != -1 {
		t.Fatalf("condition (1) should fail, got first lock %v", rep.FirstLock)
	}
}

func TestPairSafeDFCondition2Failure(t *testing.T) {
	// Both lock x first, but T1 releases x before locking y: nothing guards
	// y, so interleavings are unsafe. R = {x, y}; L_T1(Ly) = ∅.
	d := xyDB()
	t1 := buildChain(d, "T1", "Lx Ux Ly Uy")
	t2 := buildChain(d, "T2", "Lx Ly Ux Uy")
	rep := PairSafeDF(t1, t2)
	if rep.SafeDF {
		t.Fatal("unguarded pair accepted")
	}
	if rep.FirstLock == -1 {
		t.Fatal("condition (1) should hold (x first in both)")
	}
}

func TestPairSafeDFNoCommonEntities(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("a", "s1")
	d.MustEntity("b", "s2")
	t1 := buildChain(d, "T1", "La Ua")
	t2 := buildChain(d, "T2", "Lb Ub")
	if rep := PairSafeDF(t1, t2); !rep.SafeDF {
		t.Fatalf("disjoint pair rejected: %s", rep.Reason)
	}
}

func TestPairSafeDFSingleCommonEntity(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("a", "s1")
	d.MustEntity("b", "s2")
	d.MustEntity("c", "s3")
	t1 := buildChain(d, "T1", "La Lb Ua Ub")
	t2 := buildChain(d, "T2", "Lb Lc Ub Uc")
	if rep := PairSafeDF(t1, t2); !rep.SafeDF {
		t.Fatalf("single-common-entity pair rejected: %s", rep.Reason)
	}
}

// TestPairAgreementWithBrute cross-validates Theorem 3 and the O(n³)
// minimal-prefix algorithm against the Lemma-1 exhaustive oracle on random
// two-transaction systems of every policy.
func TestPairAgreementWithBrute(t *testing.T) {
	cases := 0
	disagreeable := 0
	for seed := int64(0); seed < 120; seed++ {
		for _, policy := range []workload.Policy{workload.PolicyRandom, workload.PolicyTwoPhase, workload.PolicyOrdered} {
			sys := workload.MustGenerate(workload.Config{
				Sites: 2, EntitiesPerSite: 2, NumTxns: 2, EntitiesPerTxn: 3,
				Policy: policy, CrossArcProb: 0.4, Seed: seed,
			})
			want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotThm3 := PairSafeDF(sys.Txns[0], sys.Txns[1]).SafeDF
			gotMin := PairSafeDFMinimalPrefix(sys.Txns[0], sys.Txns[1])
			if gotThm3 != want {
				t.Fatalf("seed %d policy %v: Theorem 3 says %v, brute force says %v\nT1=%v\nT2=%v",
					seed, policy, gotThm3, want, sys.Txns[0], sys.Txns[1])
			}
			if gotMin != want {
				t.Fatalf("seed %d policy %v: minimal-prefix says %v, brute force says %v\nT1=%v\nT2=%v",
					seed, policy, gotMin, want, sys.Txns[0], sys.Txns[1])
			}
			cases++
			if !want {
				disagreeable++
			}
		}
	}
	if disagreeable == 0 {
		t.Fatal("workload produced no unsafe pairs — test has no discriminating power")
	}
	if disagreeable == cases {
		t.Fatal("workload produced no safe pairs — test has no discriminating power")
	}
}

// TestPairTheorem3EqualsMinimalPrefixLarger compares the two polynomial
// algorithms on larger random pairs where brute force is infeasible.
func TestPairTheorem3EqualsMinimalPrefixLarger(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		sys := workload.MustGenerate(workload.Config{
			Sites: 3, EntitiesPerSite: 3, NumTxns: 2, EntitiesPerTxn: 6,
			Policy: workload.Policy(seed % 3), CrossArcProb: 0.5, Seed: seed,
		})
		a := PairSafeDF(sys.Txns[0], sys.Txns[1]).SafeDF
		b := PairSafeDFMinimalPrefix(sys.Txns[0], sys.Txns[1])
		if a != b {
			t.Fatalf("seed %d: Theorem 3 %v vs minimal-prefix %v\nT1=%v\nT2=%v",
				seed, a, b, sys.Txns[0], sys.Txns[1])
		}
	}
}

func TestFirstCommonLockUnique(t *testing.T) {
	sys := orderedSystem()
	common := model.CommonEntities(sys.Txns[0], sys.Txns[1])
	x, ok := firstCommonLock(sys.Txns[0], sys.Txns[1], common)
	if !ok {
		t.Fatal("no first common lock in ordered system")
	}
	if sys.DDB.EntityName(x) != "x" {
		t.Fatalf("first common lock = %v", x)
	}
}

// TestPairSafeDFAgreesWithReference is the differential test of the
// shape-based Theorem 3 against the map-based one it replaced, on every
// ordered pair and self-pair of the systems TestCheckCycleAgreesWithReference
// draws its cycles from: the whole report — verdict, first lock and reason
// text — must be equal.
func TestPairSafeDFAgreesWithReference(t *testing.T) {
	seeds := int64(25)
	if raceEnabled {
		seeds = 8
	}
	var pairs, pass, cond1, cond2, wide int
	compare := func(sys *model.System) {
		for _, a := range sys.Txns {
			for _, b := range sys.Txns {
				got, want := PairSafeDF(a, b), refPairSafeDF(a, b)
				if got != want {
					t.Fatalf("PairSafeDF = %+v, reference %+v\nT1=%v\nT2=%v", got, want, a, b)
				}
				pairs++
				switch {
				case got.SafeDF:
					pass++
				case got.FirstLock < 0:
					cond1++
				default:
					cond2++
				}
				if c := model.ConflictingEntities(a, b); len(c) > 0 && c[len(c)-1] >= 64 {
					wide++
				}
			}
		}
	}
	for _, pol := range []workload.Policy{
		workload.PolicyRandom, workload.PolicyOrdered, workload.PolicyChurn, workload.PolicyZipf,
	} {
		for _, rf := range []float64{0, 0.3} {
			for seed := int64(0); seed < seeds; seed++ {
				compare(workload.MustGenerate(workload.Config{
					Sites: 3, EntitiesPerSite: 3, NumTxns: 6, EntitiesPerTxn: 3,
					Policy: pol, CrossArcProb: 0.3, ReadFraction: rf, Seed: seed,
				}))
			}
			for seed := int64(0); seed < 2; seed++ {
				compare(workload.MustGenerate(workload.Config{
					Sites: 4, EntitiesPerSite: 40, NumTxns: 4, EntitiesPerTxn: 70,
					Policy: pol, ReadFraction: rf, Seed: seed,
				}))
			}
		}
	}
	t.Logf("compared %d pairs: %d pass, %d fail condition (1), %d fail condition (2), %d conflict past entity 63",
		pairs, pass, cond1, cond2, wide)
	if pass == 0 || cond1 == 0 || cond2 == 0 || wide == 0 {
		t.Fatalf("degenerate corpus: %d pass, %d condition (1), %d condition (2), %d wide", pass, cond1, cond2, wide)
	}
}

// TestPairSafeDFNoAllocs pins the shape-based test at zero allocations on a
// passing pair and on a condition-(1) failure, whose reason is a constant.
func TestPairSafeDFNoAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		sys  *model.System
		safe bool
	}{{"ordered", orderedSystem(), true}, {"cross-lock", crossLockSystem(), false}} {
		t1, t2 := c.sys.Txns[0], c.sys.Txns[1]
		if got := PairSafeDF(t1, t2).SafeDF; got != c.safe {
			t.Fatalf("%s: SafeDF = %v, want %v", c.name, got, c.safe)
		}
		if n := testing.AllocsPerRun(100, func() { PairSafeDF(t1, t2) }); n != 0 {
			t.Fatalf("%s: PairSafeDF allocates %v times, want 0", c.name, n)
		}
	}
}
