package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"distlock/internal/graph"
	"distlock/internal/model"
	"distlock/internal/schedule"
	"distlock/internal/workload"
)

// cycleDiff compares CycleChecker with the reference on the cycles of
// systems as given and expanded the way the admission service expands them:
// every class twice in the transaction list (one *Transaction, two indices),
// so that a cycle may run through both copies of a class.
type cycleDiff struct {
	cc                                  CycleChecker
	compared, violations, copied, multi int
	// skipped counts the directions CheckCycle's far rows proved dead;
	// halfDead the violations found on a cycle whose other direction was.
	skipped, halfDead int
}

// run compares up to limit cycles of sys and as many of its two-copy
// expansion. Edges join the interacting pairs that pass Theorem 3 —
// CheckCycle's precondition.
func (d *cycleDiff) run(t *testing.T, sys *model.System, limit int) {
	t.Helper()
	d.runCopies(t, sys, 1, limit)
	d.runCopies(t, sys, 2, limit)
}

func (d *cycleDiff) runCopies(t *testing.T, sys *model.System, copies, limit int) {
	t.Helper()
	var txns []*model.Transaction
	for _, c := range sys.Txns {
		for range copies {
			txns = append(txns, c)
		}
	}
	exp := model.MustSystem(sys.DDB, txns...)
	g := graph.NewUgraph(len(txns))
	for u := range txns {
		for v := u + 1; v < len(txns); v++ {
			if model.Interacts(txns[u], txns[v]) && PairSafeDF(txns[u], txns[v]).SafeDF {
				g.AddEdge(u, v)
			}
		}
	}
	g.SimpleCycles(limit, func(cycle []int) bool {
		d.compare(t, exp, cycle)
		return true
	})
}

// compare checks one cycle of exp both ways and requires the same verdict
// and, on a violation, the same valid witness.
func (d *cycleDiff) compare(t *testing.T, exp *model.System, cycle []int) {
	t.Helper()
	txns := exp.Txns
	got := d.cc.CheckCycle(txns, cycle)
	want := refCheckCycle(exp, cycle)
	d.compared++
	deadFwd, deadBwd := d.cc.dead(false), d.cc.dead(true)
	for _, dead := range []bool{deadFwd, deadBwd} {
		if dead {
			d.skipped++
		}
	}
	classes := map[*model.Transaction]bool{}
	wide := false
	for _, v := range cycle {
		classes[txns[v]] = true
		sh := txns[v].Shape()
		wide = wide || sh.NodeWords > 1 || len(sh.Acc) > 1
	}
	if len(classes) < len(cycle) {
		d.copied++
	}
	if wide {
		d.multi++
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("cycle %v of %v: CheckCycle = %v, reference = %v", cycle, names(txns, cycle), got, want)
	}
	if got == nil {
		return
	}
	d.violations++
	k := len(cycle)
	if backward := d.cc.ord[1] != (d.cc.ord[0]+1)%k; backward && deadBwd || !backward && deadFwd {
		t.Fatalf("cycle %v: violation found in a direction the far rows skip", cycle)
	}
	if deadFwd || deadBwd {
		d.halfDead++
	}
	// The same traversal order gives the same witness, not just the same
	// verdict.
	if !slices.Equal(got.Cycle, want.Cycle) || !slices.Equal(got.Xs, want.Xs) {
		t.Fatalf("cycle %v: witness (%v, %v), reference (%v, %v)", cycle, got.Cycle, got.Xs, want.Cycle, want.Xs)
	}
	for i, p := range got.Prefixes {
		if !p.Equal(want.Prefixes[i]) {
			t.Fatalf("cycle %v: prefix %d = %v, reference %v", cycle, i, p, want.Prefixes[i])
		}
	}
	ex, err := schedule.Replay(exp, got.BuildSchedule())
	if err != nil {
		t.Fatalf("cycle %v: witness schedule illegal: %v", cycle, err)
	}
	if schedule.DigraphD(ex).IsAcyclic() {
		t.Fatalf("cycle %v: witness schedule has acyclic D(S′)", cycle)
	}
}

func names(txns []*model.Transaction, cycle []int) string {
	var sb strings.Builder
	for _, v := range cycle {
		fmt.Fprintf(&sb, "\n  %v", txns[v])
	}
	return sb.String()
}

// TestCheckCycleAgreesWithReference is the differential test of the
// shape-based check against the map-based one it replaced.
func TestCheckCycleAgreesWithReference(t *testing.T) {
	seeds, minCompared := int64(25), 10000
	if raceEnabled {
		seeds, minCompared = 8, 3000
	}
	var d cycleDiff
	for _, pol := range []workload.Policy{
		workload.PolicyRandom, workload.PolicyOrdered, workload.PolicyChurn, workload.PolicyZipf,
	} {
		for _, rf := range []float64{0, 0.3} {
			for seed := int64(0); seed < seeds; seed++ {
				d.run(t, workload.MustGenerate(workload.Config{
					Sites: 3, EntitiesPerSite: 3, NumTxns: 6, EntitiesPerTxn: 3,
					Policy: pol, CrossArcProb: 0.3, ReadFraction: rf, Seed: seed,
				}), 40)
			}
			// Transactions of 140 nodes over 160 entities: every bitset
			// spans several words.
			for seed := int64(0); seed < 2; seed++ {
				d.run(t, workload.MustGenerate(workload.Config{
					Sites: 4, EntitiesPerSite: 40, NumTxns: 4, EntitiesPerTxn: 70,
					Policy: pol, ReadFraction: rf, Seed: seed,
				}), 20)
			}
		}
	}
	t.Logf("compared %d cycles: %d violations, %d through two copies of a class, %d with multi-word bitsets",
		d.compared, d.violations, d.copied, d.multi)
	if d.compared < minCompared || d.violations == 0 || d.copied == 0 || d.multi == 0 {
		t.Fatalf("degenerate corpus: %d cycles, %d violations, %d copied, %d multi-word",
			d.compared, d.violations, d.copied, d.multi)
	}
	t.Logf("far rows skipped %d of %d directions; %d violations on a cycle with one dead direction",
		d.skipped, 2*d.compared, d.halfDead)
	if d.skipped == 0 || d.halfDead == 0 {
		t.Fatalf("the direction filter is not exercised: %d directions skipped, %d violations beside a dead direction",
			d.skipped, d.halfDead)
	}
}

// paddedRing is ringSystem(k) with every transaction first running through
// 40 private entities, declared before the ring's: each transaction has
// more than 64 nodes, and the entities the cycle turns on lie beyond the
// first word of every entity bitset.
func paddedRing(k int) *model.System {
	d := model.NewDDB()
	for i := 0; i < k; i++ {
		for j := 0; j < 40; j++ {
			d.MustEntity(fmt.Sprintf("p%d_%d", i, j), "s")
		}
	}
	for i := 0; i < k; i++ {
		d.MustEntity(fmt.Sprintf("r%d", i), "s")
	}
	txns := make([]*model.Transaction, k)
	for i := range txns {
		var spec []string
		for j := 0; j < 40; j++ {
			spec = append(spec, fmt.Sprintf("Lp%d_%d Up%d_%d", i, j, i, j))
		}
		a, b := fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", (i+1)%k)
		spec = append(spec, "L"+a, "L"+b, "U"+a, "U"+b)
		txns[i] = buildChain(d, fmt.Sprintf("T%d", i), strings.Join(spec, " "))
	}
	return model.MustSystem(d, txns...)
}

// TestCheckCycleWideViolation: a violation whose entities and nodes all lie
// past bit 64 is found, not truncated away.
func TestCheckCycleWideViolation(t *testing.T) {
	for k := 3; k <= 5; k++ {
		sys := paddedRing(k)
		if sh := sys.Txns[0].Shape(); sh.NodeWords < 2 || len(sh.Acc) < 2 {
			t.Fatalf("fixture not wide: %d node words, %d entity words", sh.NodeWords, len(sh.Acc))
		}
		ring := make([]int, k)
		for i := range ring {
			ring[i] = i
		}
		var d cycleDiff
		d.compare(t, sys, ring)
		if d.violations == 0 {
			t.Fatalf("padded %d-ring: no violation", k)
		}
	}
}

// TestCheckCycleNoAllocs pins the no-violation path at zero allocations
// once the checker's scratch has grown to the cycle's size: on a cycle
// every traversal is tried on, on a triangle, and on a cycle whose far rows
// kill both directions before any traversal runs.
func TestCheckCycleNoAllocs(t *testing.T) {
	// A k-ring whose last transaction locks in the global order: a cycle of
	// the interaction graph that no traversal can close. With hub set,
	// every transaction first locks h, which each conflicts on with its
	// non-neighbours, and h is every edge's first common lock.
	ring := func(k int, hub bool) []*model.Transaction {
		d := model.NewDDB()
		d.MustEntity("h", "sh")
		for i := 0; i < k; i++ {
			d.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i))
		}
		txns := make([]*model.Transaction, k)
		for i := range txns {
			a, b := i, (i+1)%k
			if a > b {
				a, b = b, a
			}
			spec := fmt.Sprintf("Le%d Le%d Ue%d Ue%d", a, b, a, b)
			if hub {
				spec = "Lh " + spec + " Uh"
			}
			txns[i] = buildChain(d, fmt.Sprintf("T%d", i), spec)
		}
		return txns
	}
	for _, tc := range []struct {
		name string
		txns []*model.Transaction
		dead bool
	}{
		{"ordered 8-ring", ring(8, false), false},
		{"ordered triangle", ring(3, false), false},
		{"hub-first 5-ring", ring(5, true), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycle := make([]int, len(tc.txns))
			for i := range cycle {
				cycle[i] = i
			}
			var cc CycleChecker
			if v := cc.CheckCycle(tc.txns, cycle); v != nil {
				t.Fatalf("violates: %v", v)
			}
			if dead := cc.dead(false) && cc.dead(true); dead != tc.dead {
				t.Fatalf("both directions dead = %v, want %v", dead, tc.dead)
			}
			if n := testing.AllocsPerRun(100, func() { cc.CheckCycle(tc.txns, cycle) }); n != 0 {
				t.Fatalf("CheckCycle allocates %v times, want 0", n)
			}
		})
	}
}
