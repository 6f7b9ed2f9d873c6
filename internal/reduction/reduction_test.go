package reduction

import (
	"math/rand"
	"testing"

	"distlock/internal/core"
	"distlock/internal/model"
	"distlock/internal/sat"
	"distlock/internal/schedule"
)

func lit(v int) sat.Literal {
	if v > 0 {
		return sat.Literal{Var: v - 1}
	}
	return sat.Literal{Var: -v - 1, Neg: true}
}

// paperFormula is (x1 + x2)(x1 + !x2)(!x1 + x2) — Figures 4/5's example.
func paperFormula() *sat.Formula {
	return &sat.Formula{NumVars: 2, Clauses: []sat.Clause{
		{lit(1), lit(2)},
		{lit(1), lit(-2)},
		{lit(-1), lit(2)},
	}}
}

// unsatFormula is (x)(x)(!x) — the smallest UNSAT 3SAT' instance.
func unsatFormula() *sat.Formula {
	return &sat.Formula{NumVars: 1, Clauses: []sat.Clause{
		{lit(1)}, {lit(1)}, {lit(-1)},
	}}
}

func TestBuildPaperGadget(t *testing.T) {
	g, err := Build(paperFormula())
	if err != nil {
		t.Fatal(err)
	}
	// 2 transactions, each with L/U on every entity: 2r + 3n entities.
	wantEnts := 2*3 + 3*2
	if g.Sys.DDB.NumEntities() != wantEnts {
		t.Fatalf("entities = %d, want %d", g.Sys.DDB.NumEntities(), wantEnts)
	}
	for _, txn := range g.Sys.Txns {
		if txn.N() != 2*wantEnts {
			t.Fatalf("%s has %d nodes, want %d", txn.Name(), txn.N(), 2*wantEnts)
		}
	}
	// One site per entity, as the hardness proof requires.
	if g.Sys.DDB.NumSites() != wantEnts {
		t.Fatalf("sites = %d, want %d", g.Sys.DDB.NumSites(), wantEnts)
	}
	if !IsLockArcOnly(g.Sys) {
		t.Fatal("gadget is not lock-arc-only")
	}
}

func TestBuildRejectsInvalidFormula(t *testing.T) {
	bad := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{lit(1)}}}
	if _, err := Build(bad); err == nil {
		t.Fatal("accepted invalid 3SAT' formula")
	}
}

func TestWitnessPrefixValidDeadlockPrefix(t *testing.T) {
	f := paperFormula()
	g, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	assign := sat.Solve(f)
	if assign == nil {
		t.Fatal("paper formula UNSAT?")
	}
	prefixes, err := g.WitnessPrefix(assign)
	if err != nil {
		t.Fatal(err)
	}
	// (a) lock-only and entity-disjoint.
	held := map[model.EntityID]int{}
	for ti, p := range prefixes {
		nodes := p.Nodes()
		nodes.ForEach(func(v int) bool {
			nd := p.Txn().Node(model.NodeID(v))
			if nd.Kind != model.LockOp {
				t.Fatalf("witness prefix contains non-lock node %v", nd)
			}
			if prev, dup := held[nd.Entity]; dup {
				t.Fatalf("entity %v locked by both T%d and T%d",
					nd.Entity, prev+1, ti+1)
			}
			held[nd.Entity] = ti
			return true
		})
	}
	// (b) schedulable: run all T1 locks then all T2 locks.
	var steps []schedule.Step
	for ti, p := range prefixes {
		p.Nodes().ForEach(func(v int) bool {
			steps = append(steps, schedule.Step{Txn: ti, Node: model.NodeID(v)})
			return true
		})
	}
	if _, err := schedule.Replay(g.Sys, steps); err != nil {
		t.Fatalf("witness prefix not schedulable: %v", err)
	}
	// (c) reduction graph has a cycle.
	rg, err := schedule.NewReductionGraph(g.Sys, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.HasCycle() {
		t.Fatal("witness prefix has acyclic reduction graph")
	}
	// (d) decoding the cycle yields a satisfying assignment.
	decoded := g.DecodeAssignment(rg.Cycle())
	if !f.Eval(decoded) {
		t.Fatalf("decoded assignment %v does not satisfy %v", decoded, f)
	}
}

func TestWitnessPrefixRejectsBadAssignment(t *testing.T) {
	f := paperFormula()
	g, _ := Build(f)
	if _, err := g.WitnessPrefix([]bool{false, false}); err == nil {
		t.Fatal("accepted non-satisfying assignment")
	}
}

func TestUnsatGadgetHasNoDeadlockPrefix(t *testing.T) {
	g, err := Build(unsatFormula())
	if err != nil {
		t.Fatal(err)
	}
	has, err := HasLockOnlyDeadlockPrefix(g.Sys)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Fatal("UNSAT gadget has a deadlock prefix — Theorem 2 violated")
	}
}

func TestSatGadgetHasDeadlockPrefix(t *testing.T) {
	g, err := Build(paperFormula())
	if err != nil {
		t.Fatal(err)
	}
	has, err := HasLockOnlyDeadlockPrefix(g.Sys)
	if err != nil {
		t.Fatal(err)
	}
	if !has {
		t.Fatal("SAT gadget has no deadlock prefix — Theorem 2 violated")
	}
}

// TestReductionAgreementRandom is experiment E4's core claim:
// SAT(F) ⟺ the gadget has a deadlock prefix, for random 3SAT' formulas.
// Under -race it decides the first 10 gadgets of the same stream (4 of
// them satisfiable, each ~15× slower to decide than an unsatisfiable one).
func TestReductionAgreementRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	want := 25
	if raceEnabled {
		want = 10
	}
	checked := 0
	for trial := 0; trial < 60 && checked < want; trial++ {
		n := 1 + rng.Intn(2) // keep the complete decision tractable
		f, err := sat.Random3SATPrime(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if 2*len(f.Clauses)+3*n > 13 {
			continue // 3^E enumeration too large for a unit test
		}
		checked++
		g, err := Build(f)
		if err != nil {
			t.Fatal(err)
		}
		satisfiable := sat.Solve(f) != nil
		deadlock, err := HasLockOnlyDeadlockPrefix(g.Sys)
		if err != nil {
			t.Fatal(err)
		}
		if satisfiable != deadlock {
			t.Fatalf("formula %v: SAT=%v but deadlock-prefix=%v", f, satisfiable, deadlock)
		}
		if satisfiable {
			// End-to-end witness check.
			prefixes, err := g.WitnessPrefix(sat.Solve(f))
			if err != nil {
				t.Fatalf("formula %v: witness construction failed: %v", f, err)
			}
			rg, err := schedule.NewReductionGraph(g.Sys, prefixes)
			if err != nil {
				t.Fatal(err)
			}
			if !rg.HasCycle() {
				t.Fatalf("formula %v: witness prefix acyclic", f)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d formulas checked", checked)
	}
}

// TestWitnessValidatesOnLargerFormulas runs only the (⟸) direction — which
// needs no exponential search — on bigger random instances.
func TestWitnessValidatesOnLargerFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	validated := 0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		f, err := sat.Random3SATPrime(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		assign := sat.Solve(f)
		if assign == nil {
			continue
		}
		g, err := Build(f)
		if err != nil {
			t.Fatal(err)
		}
		prefixes, err := g.WitnessPrefix(assign)
		if err != nil {
			t.Fatalf("formula %v: %v", f, err)
		}
		rg, err := schedule.NewReductionGraph(g.Sys, prefixes)
		if err != nil {
			t.Fatal(err)
		}
		if !rg.HasCycle() {
			t.Fatalf("formula %v: witness prefix acyclic", f)
		}
		decoded := g.DecodeAssignment(rg.Cycle())
		if !f.Eval(decoded) {
			t.Fatalf("formula %v: decoded %v unsatisfying", f, decoded)
		}
		validated++
	}
	if validated < 15 {
		t.Fatalf("only %d witnesses validated", validated)
	}
}

// TestLockOnlyDecisionAgreesWithGenericBrute cross-validates the
// specialized complete decision against the generic Theorem-1 search on
// small random lock-arc-only systems.
func TestLockOnlyDecisionAgreesWithGenericBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	deadlocked, free := 0, 0
	for trial := 0; trial < 60; trial++ {
		sys := randomLockArcOnlySystem(rng, 3)
		want, err := core.FindDeadlockPrefix(sys, core.BruteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := HasLockOnlyDeadlockPrefix(sys)
		if err != nil {
			t.Fatal(err)
		}
		if got != (want != nil) {
			t.Fatalf("trial %d: specialized=%v generic=%v\nT1=%v\nT2=%v",
				trial, got, want != nil, sys.Txns[0], sys.Txns[1])
		}
		if got {
			deadlocked++
		} else {
			free++
		}
	}
	if deadlocked == 0 || free == 0 {
		t.Fatalf("degenerate corpus: %d deadlocked, %d free", deadlocked, free)
	}
}

func TestHasLockOnlyDeadlockPrefixRejectsGeneralShape(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "sx")
	d.MustEntity("y", "sy")
	b := model.NewBuilder(d, "T1")
	lx, _ := b.LockUnlock("x")
	ly, _ := b.LockUnlock("y")
	b.Arc(lx, ly) // Lock -> Lock arc: not lock-arc-only
	t1 := b.MustFreeze()
	b2 := model.NewBuilder(d, "T2")
	b2.LockUnlock("x")
	t2 := b2.MustFreeze()
	sys := model.MustSystem(d, t1, t2)
	if _, err := HasLockOnlyDeadlockPrefix(sys); err == nil {
		t.Fatal("accepted non-lock-arc-only system")
	}
}

// randomLockArcOnlySystem builds two transactions over k entities (one per
// site) where each transaction accesses every entity and carries random
// Lock(e) -> Unlock(e') arcs.
func randomLockArcOnlySystem(rng *rand.Rand, k int) *model.System {
	d := model.NewDDB()
	names := make([]string, k)
	for i := range names {
		names[i] = string(rune('a' + i))
		d.MustEntity(names[i], "s"+names[i])
	}
	mk := func(name string) *model.Transaction {
		b := model.NewBuilder(d, name)
		locks := make([]model.NodeID, k)
		unlocks := make([]model.NodeID, k)
		for i, n := range names {
			locks[i], unlocks[i] = b.LockUnlock(n)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && rng.Intn(3) == 0 {
					b.Arc(locks[i], unlocks[j])
				}
			}
		}
		return b.MustFreeze()
	}
	return model.MustSystem(d, mk("T1"), mk("T2"))
}
