package core

import (
	"testing"

	"distlock/internal/model"
	"distlock/internal/schedule"
	"distlock/internal/workload"
)

// This file cross-validates the conflict-aware (shared/exclusive mode)
// generalizations of the static tests against the exhaustive oracles,
// mirroring the methodology that validated the exclusive-only originals
// (TestPairAgreementWithBrute, TestTheorem4AgainstBrute,
// TestSystemSafeDFUnsafeWithoutDeadlock's 2000-random-system sweep).

// rwPair generates a random 2-transaction system with mixed lock modes.
func rwPair(seed int64, readFraction float64) *model.System {
	return workload.MustGenerate(workload.Config{
		Sites: 2, EntitiesPerSite: 2, NumTxns: 2, EntitiesPerTxn: 3,
		Policy: workload.Policy(seed % 3), CrossArcProb: 0.3,
		ReadFraction: readFraction, Seed: seed,
	})
}

// TestPairSafeDFModesAgainstBrute is the headline pair validation: the
// conflict-aware Theorem 3 must agree with the exhaustive Lemma-1 oracle
// (itself mode-aware through the schedule layer) on ~2000 random R/W
// systems, across read fractions from write-heavy to read-only. The
// O(n³) minimal-prefix algorithm must agree with both.
func TestPairSafeDFModesAgainstBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweep")
	}
	seeds := 500
	if raceEnabled {
		seeds = 150
	}
	checked, unsafeCount := 0, 0
	for _, rf := range []float64{0.25, 0.5, 0.75, 1.0} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			sys := rwPair(seed, rf)
			t1, t2 := sys.Txns[0], sys.Txns[1]
			want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rep := PairSafeDF(t1, t2)
			if rep.SafeDF != want {
				t.Fatalf("rf=%.2f seed %d: PairSafeDF says %v, brute says %v\nT1=%v\nT2=%v\nreason: %s",
					rf, seed, rep.SafeDF, want, t1, t2, rep.Reason)
			}
			if got := PairSafeDFMinimalPrefix(t1, t2); got != want {
				t.Fatalf("rf=%.2f seed %d: minimal-prefix says %v, brute says %v\nT1=%v\nT2=%v",
					rf, seed, got, want, t1, t2)
			}
			checked++
			if !want {
				unsafeCount++
			}
		}
	}
	if checked < 4*seeds {
		t.Fatalf("only %d systems checked", checked)
	}
	if unsafeCount == 0 || unsafeCount == checked {
		t.Fatalf("degenerate corpus: %d/%d unsafe", unsafeCount, checked)
	}
	t.Logf("agreed on %d random R/W pairs (%d unsafe)", checked, unsafeCount)
}

// TestTheorem4ModesAgainstBrute validates the conflict-aware cycle
// algorithm on random 3-transaction R/W systems, including the witness
// schedules of every violation it reports.
func TestTheorem4ModesAgainstBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweep")
	}
	agree, unsafeCount := 0, 0
	for _, rf := range []float64{0.3, 0.6} {
		for seed := int64(0); seed < 120; seed++ {
			sys := workload.MustGenerate(workload.Config{
				Sites: 2, EntitiesPerSite: 2, NumTxns: 3, EntitiesPerTxn: 2,
				Policy: workload.Policy(seed % 3), CrossArcProb: 0.3,
				ReadFraction: rf, Seed: seed,
			})
			want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, viol := SystemSafeDF(sys)
			if got != want {
				t.Fatalf("rf=%.2f seed %d: Theorem 4 says %v, brute says %v\nT1=%v\nT2=%v\nT3=%v",
					rf, seed, got, want, sys.Txns[0], sys.Txns[1], sys.Txns[2])
			}
			agree++
			if !want {
				unsafeCount++
				if viol != nil && viol.Pair == nil {
					steps := viol.BuildSchedule()
					ex, err := schedule.Replay(sys, steps)
					if err != nil {
						t.Fatalf("rf=%.2f seed %d: violation schedule illegal: %v", rf, seed, err)
					}
					if schedule.DigraphD(ex).IsAcyclic() {
						t.Fatalf("rf=%.2f seed %d: violation schedule has acyclic D", rf, seed)
					}
				}
			}
		}
	}
	if unsafeCount == 0 || unsafeCount == agree {
		t.Fatalf("degenerate corpus: %d/%d unsafe", unsafeCount, agree)
	}
}

// TestTheorem5ModesViaTheorem4: on copies of a random R/W transaction the
// generalized Corollary-3 criterion must match the generalized Theorem 4
// run on the 2- and 3-copy systems.
func TestTheorem5ModesViaTheorem4(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		base, err := workload.CopiesOf(workload.Config{
			Sites: 2, EntitiesPerSite: 1, EntitiesPerTxn: 2, NumTxns: 1,
			Policy: workload.Policy(seed % 3), ReadFraction: 0.5, Seed: seed,
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := CopiesSafeDF(base.Txns[0], 3)
		got, _ := SystemSafeDF(base)
		if got != want {
			t.Fatalf("seed %d: Theorem 4 on 3 R/W copies %v vs Theorem 5 %v for %v",
				seed, got, want, base.Txns[0])
		}
	}
}

// TestTwoCopiesModesAgainstBrute validates the generalized Corollary 3
// directly against the exhaustive oracle on 2-copy systems.
func TestTwoCopiesModesAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		sys, err := workload.CopiesOf(workload.Config{
			Sites: 2, EntitiesPerSite: 1, EntitiesPerTxn: 2, NumTxns: 1,
			Policy: workload.Policy(seed % 3), ReadFraction: 0.5, Seed: seed,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := TwoCopiesSafeDF(sys.Txns[0]); got != want {
			t.Fatalf("seed %d: Corollary 3 says %v, brute says %v for %v",
				seed, got, want, sys.Txns[0])
		}
	}
}

// TestSharedModeOpensCrossedPair is the concrete fixture behind the whole
// subsystem: two transactions locking {x, y} in OPPOSITE orders deadlock
// when both lock exclusively (the classic crossed pair, rejected by
// Theorem 3), but if both only READ x the sole conflict is y and the pair
// is certified — the read-heavy traffic the exclusive-only tests were
// serializing for nothing.
func TestSharedModeOpensCrossedPair(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	build := func(name string, first, second string, firstShared, secondShared bool) *model.Transaction {
		b := model.NewBuilder(d, name)
		mode := func(shared bool) model.Mode {
			if shared {
				return model.Shared
			}
			return model.Exclusive
		}
		l1 := b.LockMode(first, mode(firstShared))
		l2 := b.LockMode(second, mode(secondShared))
		u1 := b.Unlock(first)
		u2 := b.Unlock(second)
		b.Chain(l1, l2, u1, u2)
		return b.MustFreeze()
	}

	// Both exclusive: crossed lock orders, the canonical deadlock.
	t1x := build("T1", "x", "y", false, false)
	t2x := build("T2", "y", "x", false, false)
	if rep := PairSafeDF(t1x, t2x); rep.SafeDF {
		t.Fatal("exclusive crossed pair accepted")
	}

	// Both read x: only y conflicts, pair certified; brute agrees.
	t1s := build("T1s", "x", "y", true, false)
	t2s := build("T2s", "y", "x", false, true)
	rep := PairSafeDF(t1s, t2s)
	if !rep.SafeDF {
		t.Fatalf("shared-x crossed pair rejected: %s", rep.Reason)
	}
	sys := model.MustSystem(d, t1s, t2s)
	if ok, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{}); err != nil || !ok {
		t.Fatalf("brute disagrees on shared-x crossed pair: %v %v", ok, err)
	}

	// One writes x, one reads it: R/W conflicts — back to the crossed
	// deadlock, and the test must still reject it.
	t1m := build("T1m", "x", "y", true, false)
	t2m := build("T2m", "y", "x", false, false)
	if rep := PairSafeDF(t1m, t2m); rep.SafeDF {
		t.Fatal("R/W crossed pair accepted")
	}
}

// TestAllSharedSystemTrivial: a system whose transactions only read is
// conflict-free — no interaction edges, certified at any size, and the
// oracle concurs.
func TestAllSharedSystemTrivial(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	reader := func(name string) *model.Transaction {
		b := model.NewBuilder(d, name)
		lx := b.LockShared("x")
		ly := b.LockShared("y")
		ux := b.Unlock("x")
		uy := b.Unlock("y")
		b.Chain(lx, ly, ux, uy)
		return b.MustFreeze()
	}
	rev := func(name string) *model.Transaction {
		b := model.NewBuilder(d, name)
		ly := b.LockShared("y")
		lx := b.LockShared("x")
		uy := b.Unlock("y")
		ux := b.Unlock("x")
		b.Chain(ly, lx, uy, ux)
		return b.MustFreeze()
	}
	sys := model.MustSystem(d, reader("R1"), rev("R2"), reader("R3"))
	if sys.InteractionGraph().NumEdges() != 0 {
		t.Fatal("all-shared system has interaction edges")
	}
	if ok, viol := SystemSafeDF(sys); !ok {
		t.Fatalf("all-shared system rejected: %v", viol)
	}
	if ok, _, err := IsSafeAndDeadlockFreeBrute(sys, BruteOptions{}); err != nil || !ok {
		t.Fatalf("brute rejects all-shared system: %v %v", ok, err)
	}
	if !CopiesSafeDF(sys.Txns[0], 4) {
		t.Fatal("copies of an all-shared transaction rejected")
	}
}
