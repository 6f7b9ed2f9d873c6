package admission

import (
	"testing"

	"distlock/internal/core"
	"distlock/internal/model"
	"distlock/internal/workload"
)

// interactingPairs counts the entity-sharing pairs among txns — exactly the
// PairSafeDF evaluations a from-scratch SystemSafeDF performs on a system
// whose pairs all pass.
func interactingPairs(txns []*model.Transaction) int {
	n := 0
	for i := range txns {
		for j := i + 1; j < len(txns); j++ {
			if len(model.CommonEntities(txns[i], txns[j])) > 0 {
				n++
			}
		}
	}
	return n
}

func removeTxn(txns []*model.Transaction, t *model.Transaction) []*model.Transaction {
	for i, x := range txns {
		if x == t {
			return append(txns[:i], txns[i+1:]...)
		}
	}
	return txns
}

// TestPropertyIncrementalAgreesWithScratch drives the service through
// random churn under each generation policy and checks, at every arrival,
// that the incremental decision agrees with a from-scratch SystemSafeDF of
// the candidate mix — and that a warm admission into a set with interacting
// members performs strictly fewer PairSafeDF evaluations than the
// from-scratch run (the op-counter acceptance criterion).
func TestPropertyIncrementalAgreesWithScratch(t *testing.T) {
	for _, pol := range []workload.Policy{
		workload.PolicyRandom, workload.PolicyTwoPhase, workload.PolicyOrdered,
	} {
		t.Run(pol.String(), func(t *testing.T) {
			sawStrictlyFewer := false
			for seed := int64(1); seed <= 4; seed++ {
				cfg := workload.Config{
					Sites: 4, EntitiesPerSite: 3, EntitiesPerTxn: 3,
					Policy: pol, CrossArcProb: 0.4, Seed: seed * 1013,
				}
				ddb, trace, err := workload.ChurnTrace(cfg, 14, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				svc := New(ddb, Options{})
				var live []*model.Transaction
				for _, ev := range trace {
					if !ev.Arrive {
						// The trace may retire a class the service rejected;
						// eviction succeeds exactly for admitted ones.
						wasLive := false
						for _, x := range live {
							if x == ev.Txn {
								wasLive = true
								break
							}
						}
						if got := svc.Evict(ev.Txn.Name()); got != wasLive {
							t.Fatalf("seed %d: Evict(%s) = %v, want %v", seed, ev.Txn.Name(), got, wasLive)
						}
						live = removeTxn(live, ev.Txn)
						continue
					}
					before := svc.Stats()
					res, err := svc.Admit(ctx, ev.Txn)
					if err != nil {
						t.Fatal(err)
					}
					incEvals := svc.Stats().PairChecks - before.PairChecks

					cand := model.MustSystem(ddb,
						append(append([]*model.Transaction{}, live...), ev.Txn)...)
					scratchBefore := core.PairEvalCount()
					want, _ := core.SystemSafeDF(cand)
					scratchEvals := core.PairEvalCount() - scratchBefore
					if res.Admitted != want {
						t.Fatalf("seed %d: Admit(%s) = %v (%s), from-scratch SystemSafeDF = %v",
							seed, ev.Txn.Name(), res.Admitted, res.Reason, want)
					}
					if res.Admitted {
						// Warm-service criterion: with interacting classes
						// already live, the incremental admission must beat
						// the from-scratch re-certification on pair work.
						if interactingPairs(live) >= 1 {
							if incEvals >= scratchEvals {
								t.Fatalf("seed %d: admitting %s cost %d pair evals, from-scratch cost %d — not strictly fewer",
									seed, ev.Txn.Name(), incEvals, scratchEvals)
							}
							sawStrictlyFewer = true
						}
						live = append(live, ev.Txn)
					}
				}
				// Invariant: the live set is certified at all times.
				if ok, _ := core.SystemSafeDF(svc.Snapshot()); !ok {
					t.Fatalf("seed %d: final live set not certified", seed)
				}
			}
			if !sawStrictlyFewer {
				t.Fatal("no admission exercised the strictly-fewer op-counter criterion")
			}
		})
	}
}

// TestPropertyMultiplicityAgreesWithExpandedScratch replays churn into a
// Multiplicity-2 service and checks every decision against a from-scratch
// SystemSafeDF of the EXPANDED candidate system (two syntactic copies of
// every class) — the system a 2-clients-per-class engine actually runs.
func TestPropertyMultiplicityAgreesWithExpandedScratch(t *testing.T) {
	expand := func(ddb *model.DDB, classes []*model.Transaction) *model.System {
		var txns []*model.Transaction
		for _, c := range classes {
			txns = append(txns, model.MustCopies(c, 2).Txns...)
		}
		return model.MustSystem(ddb, txns...)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.Config{
			Sites: 4, EntitiesPerSite: 3, EntitiesPerTxn: 3,
			Policy: workload.PolicyChurn, CrossArcProb: 0.4, Seed: seed * 677,
		}
		ddb, trace, err := workload.ChurnTrace(cfg, 10, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(ddb, Options{Multiplicity: 2})
		var live []*model.Transaction
		for _, ev := range trace {
			if !ev.Arrive {
				svc.Evict(ev.Txn.Name())
				live = removeTxn(live, ev.Txn)
				continue
			}
			res, err := svc.Admit(ctx, ev.Txn)
			if err != nil {
				t.Fatal(err)
			}
			cand := append(append([]*model.Transaction{}, live...), ev.Txn)
			want, _ := core.SystemSafeDF(expand(ddb, cand))
			if res.Admitted != want {
				t.Fatalf("seed %d: Admit(%s) at multiplicity 2 = %v (%s), expanded SystemSafeDF = %v",
					seed, ev.Txn.Name(), res.Admitted, res.Reason, want)
			}
			if res.Admitted {
				live = append(live, ev.Txn)
			}
		}
		if ok, _ := core.SystemSafeDF(expand(ddb, live)); !ok {
			t.Fatalf("seed %d: expanded live set not certified", seed)
		}
	}
}

// TestPropertyMultiplicity3AgreesWithExpandedScratch is the same check at
// multiplicity 3, where a cycle can run through three copies of one class
// and the class walk's copy-labelling counts first differ from 2^k.
func TestPropertyMultiplicity3AgreesWithExpandedScratch(t *testing.T) {
	expand := func(ddb *model.DDB, classes []*model.Transaction) *model.System {
		var txns []*model.Transaction
		for _, c := range classes {
			txns = append(txns, model.MustCopies(c, 3).Txns...)
		}
		return model.MustSystem(ddb, txns...)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.Config{
			Sites: 4, EntitiesPerSite: 3, EntitiesPerTxn: 3,
			Policy: workload.PolicyChurn, CrossArcProb: 0.4, Seed: seed * 677,
		}
		ddb, trace, err := workload.ChurnTrace(cfg, 10, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(ddb, Options{Multiplicity: 3})
		var live []*model.Transaction
		for _, ev := range trace {
			if !ev.Arrive {
				svc.Evict(ev.Txn.Name())
				live = removeTxn(live, ev.Txn)
				continue
			}
			res, err := svc.Admit(ctx, ev.Txn)
			if err != nil {
				t.Fatal(err)
			}
			cand := append(append([]*model.Transaction{}, live...), ev.Txn)
			want, _ := core.SystemSafeDF(expand(ddb, cand))
			if res.Admitted != want {
				t.Fatalf("seed %d: Admit(%s) at multiplicity 3 = %v (%s), expanded SystemSafeDF = %v",
					seed, ev.Txn.Name(), res.Admitted, res.Reason, want)
			}
			if res.Admitted {
				live = append(live, ev.Txn)
			}
		}
		if ok, _ := core.SystemSafeDF(expand(ddb, live)); !ok {
			t.Fatalf("seed %d: expanded live set not certified", seed)
		}
	}
}

// TestPropertyBatchAgreesWithSequential replays each churn trace through
// two services — one admitting arrivals one at a time, one in batches — and
// checks they make identical decisions and converge to the same certified
// set (batching is a latency optimization, not a semantic change).
func TestPropertyBatchAgreesWithSequential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.Config{
			Sites: 4, EntitiesPerSite: 3, EntitiesPerTxn: 3,
			Policy: workload.PolicyChurn, CrossArcProb: 0.4, Seed: seed * 271,
		}
		ddb, trace, err := workload.ChurnTrace(cfg, 16, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		seq := New(ddb, Options{})
		bat := New(ddb, Options{})
		seqDecisions := map[string]bool{}
		batDecisions := map[string]bool{}

		var pending []*model.Transaction
		flush := func() {
			if len(pending) == 0 {
				return
			}
			rs, err := bat.AdmitBatch(ctx, pending)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				batDecisions[r.Class] = r.Admitted
			}
			pending = pending[:0]
		}
		for _, ev := range trace {
			if ev.Arrive {
				res, err := seq.Admit(ctx, ev.Txn)
				if err != nil {
					t.Fatal(err)
				}
				seqDecisions[ev.Txn.Name()] = res.Admitted
				pending = append(pending, ev.Txn)
				if len(pending) == 3 {
					flush()
				}
				continue
			}
			flush()
			seq.Evict(ev.Txn.Name())
			bat.Evict(ev.Txn.Name())
		}
		flush()

		if len(seqDecisions) != len(batDecisions) {
			t.Fatalf("seed %d: %d sequential vs %d batch decisions", seed, len(seqDecisions), len(batDecisions))
		}
		for name, d := range seqDecisions {
			if batDecisions[name] != d {
				t.Fatalf("seed %d: class %s sequential=%v batch=%v", seed, name, d, batDecisions[name])
			}
		}
		a, b := seq.Stats(), bat.Stats()
		if a.Live != b.Live || a.Admitted != b.Admitted || a.Rejected != b.Rejected {
			t.Fatalf("seed %d: stats diverge: seq=%+v bat=%+v", seed, a, b)
		}
	}
}
