package admission

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"distlock/internal/core"
	"distlock/internal/graph"
	"distlock/internal/model"
	"distlock/internal/parse"
	"distlock/internal/schedule"
	"distlock/internal/workload"
)

// TestReplayIsDeterministic replays event sequences on fresh services and
// requires every counter to repeat — the cycle counts included, which
// depend on the order the class walk visits neighbours in, and so on where
// it meets a violation or the budget.
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

// expanded lists each class m times: the system an engine running m
// instances per class executes, whose index i*m+k is copy k of class i.
func expanded(classes []*model.Transaction, m int) []*model.Transaction {
	var txns []*model.Transaction
	for _, c := range classes {
		for range m {
			txns = append(txns, c)
		}
	}
	return txns
}

// expandedCycles counts, by brute force, the simple cycles of the expanded
// interaction graph of classes at multiplicity m.
func expandedCycles(d *model.DDB, classes []*model.Transaction, m int) int64 {
	return int64(model.MustSystem(d, expanded(classes, m)...).InteractionGraph().CountSimpleCycles())
}

// newCycles is what admitting cand to live adds to the expanded graph.
func newCycles(d *model.DDB, live []*model.Transaction, cand *model.Transaction, m int) int64 {
	return expandedCycles(d, append(append([]*model.Transaction{}, live...), cand), m) -
		expandedCycles(d, live, m)
}

// TestWalkWeightsCountExpandedCycles replays churn at multiplicities 1–3
// with no budget and holds every admission's CyclesChecked delta to the
// cycles its candidate adds to the expanded graph, counted by brute force:
// the class walk checks each shape once but must count it as every cycle it
// stands for. Candidates with no live neighbour are skipped: Theorem 5
// covers their copy-clique, which is never enumerated. A trace stops where
// the expanded graph would pass nine vertices: beyond that, both counts
// take seconds.
func TestWalkWeightsCountExpandedCycles(t *testing.T) {
	for m := 1; m <= 3; m++ {
		compared := 0
		for seed := int64(1); seed <= 40; seed++ {
			cfg := workload.Config{
				Sites: 8, EntitiesPerSite: 3, EntitiesPerTxn: 3,
				Policy: workload.PolicyChurn, Seed: seed * 131,
			}
			ddb, trace, err := workload.ChurnTrace(cfg, 16, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			svc := New(ddb, Options{Multiplicity: m})
			var live []*model.Transaction
			for _, ev := range trace {
				if !ev.Arrive {
					svc.Evict(ev.Txn.Name())
					live = removeTxn(live, ev.Txn)
					continue
				}
				if (len(live)+1)*m > 9 {
					break
				}
				before := svc.Stats().CyclesChecked
				res, err := svc.Admit(ctx, ev.Txn)
				if err != nil {
					t.Fatal(err)
				}
				got := svc.Stats().CyclesChecked - before
				if (res.Admitted || res.Violation != nil) &&
					slices.ContainsFunc(live, func(l *model.Transaction) bool { return model.Interacts(ev.Txn, l) }) {
					want := newCycles(ddb, live, ev.Txn, m)
					switch {
					case res.Admitted && got != want:
						t.Fatalf("m=%d seed %d: admitting %s counted %d cycles, the expanded graph gained %d",
							m, seed, ev.Txn.Name(), got, want)
					case !res.Admitted && got > want:
						t.Fatalf("m=%d seed %d: rejecting %s counted %d cycles, more than the %d it would add",
							m, seed, ev.Txn.Name(), got, want)
					}
					if res.Admitted && got > 0 {
						compared++
					}
				}
				if res.Admitted {
					live = append(live, ev.Txn)
				}
			}
		}
		if compared < 10 {
			t.Fatalf("m=%d: only %d admissions with cycles compared", m, compared)
		}
	}
}

// TestWalkWeightWithStabiliser: candidate C and live X interact and each
// interacts with its own copy, so at multiplicity 2 the expanded graph is
// K4 on C0, C1, X0, X1 — 7 cycles, all new. The class walk sees four shapes:
// C-C-X and C-X-X (2 triangles each), C-C-X-X (2 squares) and C-X-C-X,
// which rotation by two and both reflections map to itself, so its 4
// copy-labellings are a single square.
func TestWalkWeightWithStabiliser(t *testing.T) {
	d := xyzDDB()
	x := chainTxn(d, "X", "Lx", "Ly", "Ux", "Uy")
	c := chainTxn(d, "C", "Lx", "Ly", "Uy", "Ux")
	svc := New(d, Options{Multiplicity: 2})
	for _, txn := range []*model.Transaction{x, c} {
		if res, err := svc.Admit(ctx, txn); err != nil || !res.Admitted {
			t.Fatalf("Admit(%s) = %+v, %v", txn.Name(), res, err)
		}
	}
	if got, want := svc.Stats().CyclesChecked, newCycles(d, []*model.Transaction{x}, c, 2); got != 7 || want != 7 {
		t.Fatalf("CyclesChecked = %d, brute count %d, want 7", got, want)
	}

	// C-X-C-X directly: X is class 0, the candidate class 1.
	w := cycleWalk{n: 1, m: 2, ids: []int{2, 0, 3, 1}, ranks: []int{0, 1, 0, 1}}
	if stab := w.stabiliser(); stab != 4 || w.weight(stab) != 1 {
		t.Fatalf("C-X-C-X: stabiliser %d, weight %d; want 4 and 1", stab, w.weight(stab))
	}
	// X-C-X-C is the same shape read from X: not the canonical walk.
	w.ids, w.ranks = []int{0, 2, 1, 3}, []int{1, 0, 1, 0}
	if stab := w.stabiliser(); stab != 0 {
		t.Fatalf("X-C-X-C reported canonical with stabiliser %d", stab)
	}
}

// TestCycleBudgetBoundary admits a candidate whose certification counts
// exactly B expanded cycles under CycleBudget B, and rejects it as
// budget-exhausted under B-1.
func TestCycleBudgetBoundary(t *testing.T) {
	d := xyzDDB()
	txns := orderedTxns(d)
	b := newCycles(d, txns[:2], txns[2], 2)
	admit := func(budget int64) (Result, Stats) {
		svc := New(d, Options{Multiplicity: 2, CycleBudget: budget})
		for _, txn := range txns[:2] {
			if res, err := svc.Admit(ctx, txn); err != nil || !res.Admitted {
				t.Fatalf("budget %d: Admit(%s) = %+v, %v", budget, txn.Name(), res, err)
			}
		}
		before := svc.Stats()
		res, err := svc.Admit(ctx, txns[2])
		if err != nil {
			t.Fatal(err)
		}
		after := svc.Stats()
		after.CyclesChecked -= before.CyclesChecked
		return res, after
	}
	if res, st := admit(b); !res.Admitted || st.CyclesChecked != b || st.BudgetExhausted != 0 {
		t.Fatalf("budget %d (exact): admitted=%v (%s), counted %d", b, res.Admitted, res.Reason, st.CyclesChecked)
	}
	if res, st := admit(b - 1); res.Admitted || st.BudgetExhausted != 1 || st.CyclesChecked > b-1 {
		t.Fatalf("budget %d: admitted=%v (%s), counted %d, exhausted %d",
			b-1, res.Admitted, res.Reason, st.CyclesChecked, st.BudgetExhausted)
	}
}

// twoCopyWitness is a system whose classes each pass Corollary 3 and
// whose pair passes Theorem 3, yet two instances of T1 and one of T2 admit
// a non-serializable schedule: the multiplicity-2 witness needs both
// copies of T1.
const twoCopyWitness = `
site s0: e0 e2
site s1: e1 e3

txn T1 {
  n0: lock e0 shared
  n1: unlock e0
  n2: lock e1 shared
  n3: lock e3
  n4: unlock e3
  n5: unlock e1
  n1 -> n4
  n2 -> n3
  n4 -> n5
}

txn T2 {
  n0: lock e0
  n1: lock e2
  n2: unlock e0
  n3: unlock e2
  n4: lock e1 shared
  n5: unlock e1
  n0 -> n1
  n1 -> n2
  n2 -> n3
}
`

// TestTwoCopyWitnessReplays: a multiplicity-2 rejection whose violation
// runs through both copies of one class indexes the expanded system (copy
// k of class i at i*m+k), and its schedule replays legally there with a
// cyclic D.
func TestTwoCopyWitnessReplays(t *testing.T) {
	sys, err := parse.System(strings.NewReader(twoCopyWitness))
	if err != nil {
		t.Fatal(err)
	}
	const m = 2
	svc := New(sys.DDB, Options{Multiplicity: m})
	if res, err := svc.Admit(ctx, sys.Txns[0]); err != nil || !res.Admitted {
		t.Fatalf("Admit(T1) = %+v, %v", res, err)
	}
	res, err := svc.Admit(ctx, sys.Txns[1])
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if res.Admitted || v == nil {
		t.Fatalf("Admit(T2) = %+v, want a Theorem 4 rejection", res)
	}
	copies := map[int]int{}
	for _, id := range v.Cycle {
		copies[id/m]++
	}
	if copies[0] != m {
		t.Fatalf("violation cycle %v does not run through both copies of T1", v.Cycle)
	}

	ex := model.MustSystem(sys.DDB, expanded(sys.Txns, m)...)
	exec, err := schedule.Replay(ex, v.BuildSchedule())
	if err != nil {
		t.Fatalf("witness schedule does not replay over the expanded system: %v", err)
	}
	if schedule.DigraphD(exec).IsAcyclic() {
		t.Fatal("witness schedule leaves D acyclic")
	}
	if ok, _, err := core.IsSafeAndDeadlockFreeBrute(ex, core.BruteOptions{}); err != nil || ok {
		t.Fatalf("brute oracle on the expanded system: safe=%v, %v", ok, err)
	}
	if !strings.Contains(res.Reason, fmt.Sprint(v.Cycle)) {
		t.Fatalf("reason %q does not name the cycle %v", res.Reason, v.Cycle)
	}
}

// certCorpus feeds walkCert every orientation of up to limit cycles of the
// expanded interaction graph of classes at multiplicity m (edges join the
// interacting pairs that pass Theorem 3, CheckCycle's precondition), one
// position at a time as the class walk does, and holds each walk the
// certificate calls benign where it closes to CheckCycle.
type certCorpus struct {
	cc                                  core.CycleChecker
	cert                                walkCert
	walk                                []int
	cycles, violations, flagged, closes int
}

func (d *certCorpus) run(t *testing.T, classes []*model.Transaction, m, limit int) {
	t.Helper()
	txns := expanded(classes, m)
	g := graph.NewUgraph(len(txns))
	for u := range txns {
		for v := u + 1; v < len(txns); v++ {
			if model.Interacts(txns[u], txns[v]) && core.PairSafeDF(txns[u], txns[v]).SafeDF {
				g.AddEdge(u, v)
			}
		}
	}
	g.SimpleCycles(limit, func(cycle []int) bool {
		d.cycles++
		if d.cc.CheckCycle(txns, cycle) != nil {
			d.violations++
		}
		k := len(cycle)
		for _, dir := range [2]int{1, k - 1} {
			for r := range k {
				d.walk = d.walk[:0]
				for i := range k {
					d.walk = append(d.walk, cycle[(r+i*dir)%k])
				}
				d.feed(t, txns, g)
			}
		}
		return true
	})
}

// feed pushes d.walk onto a fresh certificate. Every prefix of three or
// more positions is settled, as emit would settle it; one that closes into
// a cycle of g and is called benign must pass CheckCycle.
func (d *certCorpus) feed(t *testing.T, txns []*model.Transaction, g *graph.Ugraph) {
	t.Helper()
	d.cert.release()
	for i, v := range d.walk {
		d.cert.push(txns[v].Shape())
		if i < 2 || !d.cert.benign() {
			continue
		}
		prefix := d.walk[:i+1]
		if i == len(d.walk)-1 {
			d.flagged++
		} else if !g.HasEdge(v, d.walk[0]) {
			continue
		}
		d.closes++
		if viol := d.cc.CheckCycle(txns, prefix); viol != nil {
			t.Fatalf("walk %v certified benign, but CheckCycle finds %v%s", prefix, viol, names(txns, prefix))
		}
	}
}

func names(txns []*model.Transaction, walk []int) string {
	var sb strings.Builder
	for _, v := range walk {
		fmt.Fprintf(&sb, "\n  %v", txns[v])
	}
	return sb.String()
}

// TestWalkCertificateSound: whenever the class walk's certificate proves
// both directions of a closed walk dead, CheckCycle finds no violation on
// it. The corpus is the expanded graphs of short churn traces (m = 1–3)
// and of the systems TestCheckCycleAgreesWithReference in internal/core
// draws its cycles from (m = 1, 2, as there), every cycle fed in all 2k
// orientations.
func TestWalkCertificateSound(t *testing.T) {
	var d certCorpus
	// Each churn arrival with the classes live before it, while the expanded
	// graph stays within ten vertices.
	for m := 1; m <= 3; m++ {
		for seed := int64(1); seed <= 20; seed++ {
			_, trace, err := workload.ChurnTrace(workload.Config{
				Sites: 8, EntitiesPerSite: 3, EntitiesPerTxn: 3,
				Policy: workload.PolicyChurn, Seed: seed * 131,
			}, 16, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			var live []*model.Transaction
			for _, ev := range trace {
				if !ev.Arrive {
					live = removeTxn(live, ev.Txn)
					continue
				}
				if (len(live)+1)*m > 10 {
					break
				}
				live = append(live, ev.Txn)
				d.run(t, live, m, 200)
			}
		}
	}
	for _, pol := range []workload.Policy{
		workload.PolicyRandom, workload.PolicyOrdered, workload.PolicyChurn, workload.PolicyZipf,
	} {
		for _, rf := range []float64{0, 0.3} {
			for seed := int64(0); seed < 25; seed++ {
				sys := workload.MustGenerate(workload.Config{
					Sites: 3, EntitiesPerSite: 3, NumTxns: 6, EntitiesPerTxn: 3,
					Policy: pol, CrossArcProb: 0.3, ReadFraction: rf, Seed: seed,
				})
				for m := 1; m <= 2; m++ {
					d.run(t, sys.Txns, m, 40)
				}
			}
		}
	}
	t.Logf("%d cycles (%d violate), %d orientations certified benign, %d closing walks checked",
		d.cycles, d.violations, d.flagged, d.closes)
	if d.violations == 0 || d.flagged == 0 {
		t.Fatalf("degenerate corpus: %d violations, %d certified orientations", d.violations, d.flagged)
	}
}
