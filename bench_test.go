// Benchmarks regenerating the experiments of EXPERIMENTS.md (one bench per
// experiment E1–E10, plus micro-benchmarks of the core algorithms).
// Run with: go test -bench=. -benchmem .
package distlock_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"distlock"
	"distlock/internal/admission"
	"distlock/internal/baseline"
	"distlock/internal/core"
	"distlock/internal/figures"
	"distlock/internal/model"
	"distlock/internal/optimize"
	"distlock/internal/reduction"
	"distlock/internal/sat"
	"distlock/internal/schedule"
	"distlock/internal/sim"
	"distlock/internal/workload"
)

// BenchmarkE1Fig1ReductionGraph measures building and cycle-checking the
// reduction graph of the paper's Figure 1 prefix.
func BenchmarkE1Fig1ReductionGraph(b *testing.B) {
	sys, prefixes := figures.Fig1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rg, err := schedule.NewReductionGraph(sys, prefixes)
		if err != nil {
			b.Fatal(err)
		}
		if !rg.HasCycle() {
			b.Fatal("Fig1 cycle lost")
		}
	}
}

// BenchmarkE2Fig2TirriCounterexample compares Tirri's (wrong) polynomial
// test against the exhaustive Theorem-1 search on the Figure 2 system.
func BenchmarkE2Fig2TirriCounterexample(b *testing.B) {
	t := figures.Fig2()
	sys := model.MustCopies(t, 2)
	b.Run("tirri", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !baseline.TirriDeadlockFree(sys.Txns[0], sys.Txns[1]) {
				b.Fatal("Tirri fired unexpectedly")
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := core.FindDeadlockPrefix(sys, core.BruteOptions{})
			if err != nil || w == nil {
				b.Fatal("deadlock lost")
			}
		}
	})
}

// BenchmarkE3Fig3Brute measures the exhaustive DF check on Figure 3's two
// copies (deadlock-free, so the search exhausts the state space).
func BenchmarkE3Fig3Brute(b *testing.B) {
	sys := model.MustCopies(figures.Fig3(), 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		df, err := core.IsDeadlockFreeBrute(sys, core.BruteOptions{})
		if err != nil || !df {
			b.Fatal("Fig3 verdict changed")
		}
	}
}

// BenchmarkE4ReductionAgreement measures the full Theorem-2 pipeline:
// build gadget, decide deadlock-prefix existence, compare with DPLL.
func BenchmarkE4ReductionAgreement(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var formulas []*sat.Formula
	for len(formulas) < 8 {
		f, err := sat.Random3SATPrime(1+rng.Intn(2), rng)
		if err != nil {
			b.Fatal(err)
		}
		if 2*len(f.Clauses)+3*f.NumVars <= 12 {
			formulas = append(formulas, f)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := formulas[i%len(formulas)]
		g, err := reduction.Build(f)
		if err != nil {
			b.Fatal(err)
		}
		dl, err := reduction.HasLockOnlyDeadlockPrefix(g.Sys)
		if err != nil {
			b.Fatal(err)
		}
		if dl != (sat.Solve(f) != nil) {
			b.Fatal("Theorem 2 equivalence violated")
		}
	}
}

// BenchmarkE5Fig6Copies measures the 2-copy and 3-copy DF searches of
// Figure 6.
func BenchmarkE5Fig6Copies(b *testing.B) {
	t := figures.Fig6()
	for _, d := range []int{2, 3} {
		sys := model.MustCopies(t, d)
		b.Run(fmt.Sprintf("copies=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FindDeadlock(sys, core.BruteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// e6Pair builds an ordered-2PL pair with k common entities.
func e6Pair(k int, seed int64) (*model.Transaction, *model.Transaction) {
	sys := workload.MustGenerate(workload.Config{
		Sites: 4, EntitiesPerSite: (k + 3) / 4, NumTxns: 2,
		EntitiesPerTxn: k, Policy: workload.PolicyOrdered, Seed: seed,
	})
	return sys.Txns[0], sys.Txns[1]
}

// BenchmarkE6PairwiseScaling sweeps transaction size for Theorem 3 and the
// O(n³) minimal-prefix algorithm.
func BenchmarkE6PairwiseScaling(b *testing.B) {
	for _, k := range []int{16, 64, 256, 1024} {
		t1, t2 := e6Pair(k, int64(k))
		b.Run(fmt.Sprintf("thm3/entities=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !core.PairSafeDF(t1, t2).SafeDF {
					b.Fatal("ordered pair rejected")
				}
			}
		})
		b.Run(fmt.Sprintf("minprefix/entities=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !core.PairSafeDFMinimalPrefix(t1, t2) {
					b.Fatal("ordered pair rejected")
				}
			}
		})
	}
}

// BenchmarkE7Copies measures Corollary 3 against Theorem 4 on d copies.
func BenchmarkE7Copies(b *testing.B) {
	cfg := workload.Config{Sites: 2, EntitiesPerSite: 8, NumTxns: 1,
		EntitiesPerTxn: 16, Policy: workload.PolicyOrdered, Seed: 7}
	for _, d := range []int{2, 4} {
		sys, err := workload.CopiesOf(cfg, d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cor3/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.CopiesSafeDF(sys.Txns[0], d)
			}
		})
		b.Run(fmt.Sprintf("thm4/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SystemSafeDF(sys)
			}
		})
	}
}

// BenchmarkE8MultiCycles sweeps transaction count for Theorem 4; cost
// tracks interaction-graph cycle count.
func BenchmarkE8MultiCycles(b *testing.B) {
	for _, d := range []int{3, 4, 5, 6} {
		sys := workload.MustGenerate(workload.Config{
			Sites: 2, EntitiesPerSite: 3, NumTxns: d, EntitiesPerTxn: 3,
			Policy: workload.PolicyOrdered, Seed: int64(d) * 11,
		})
		cycles := sys.InteractionGraph().CountSimpleCycles()
		b.Run(fmt.Sprintf("txns=%d/cycles=%d", d, cycles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SystemSafeDF(sys)
			}
		})
	}
}

// BenchmarkE9BruteBlowup measures the complete deadlock-prefix decision on
// deadlock-free lock-arc-only pairs: exponential in the entity count.
func BenchmarkE9BruteBlowup(b *testing.B) {
	for _, k := range []int{6, 8, 10} {
		var sys *model.System
		for seed := int64(1); ; seed++ {
			cand := workload.LockArcOnlySystem(k, 2, 0.08, seed)
			has, err := reduction.HasLockOnlyDeadlockPrefix(cand)
			if err != nil {
				b.Fatal(err)
			}
			if !has {
				sys = cand
				break
			}
		}
		b.Run(fmt.Sprintf("entities=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reduction.HasLockOnlyDeadlockPrefix(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// e10Templates builds the certified and deadlock-ring workloads of E10.
func e10Templates(ring bool) []*model.Transaction {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	chain := func(name string, specs ...string) *model.Transaction {
		bld := model.NewBuilder(d, name)
		var prev model.NodeID = -1
		for _, s := range specs {
			var id model.NodeID
			if s[0] == 'L' {
				id = bld.Lock(s[1:])
			} else {
				id = bld.Unlock(s[1:])
			}
			if prev >= 0 {
				bld.Arc(prev, id)
			}
			prev = id
		}
		return bld.MustFreeze()
	}
	if ring {
		return []*model.Transaction{
			chain("A", "Lx", "Ly", "Ux", "Uy"),
			chain("B", "Ly", "Lz", "Uy", "Uz"),
			chain("C", "Lz", "Lx", "Uz", "Ux"),
		}
	}
	return []*model.Transaction{
		chain("A", "Lx", "Ly", "Ux", "Uy"),
		chain("B", "Lx", "Lz", "Ux", "Uz"),
		chain("C", "Ly", "Lz", "Uy", "Uz"),
	}
}

// BenchmarkE10Strategies measures simulated runs of the certified mix
// under no handling versus dynamic schemes on the deadlock-prone ring.
func BenchmarkE10Strategies(b *testing.B) {
	cases := []struct {
		name  string
		ring  bool
		strat sim.Strategy
	}{
		{"certified/none", false, sim.StrategyNone},
		{"certified/woundwait", false, sim.StrategyWoundWait},
		{"ring/detect", true, sim.StrategyDetect},
		{"ring/woundwait", true, sim.StrategyWoundWait},
		{"ring/waitdie", true, sim.StrategyWaitDie},
	}
	for _, c := range cases {
		tmpl := e10Templates(c.ring)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := sim.Run(sim.Config{
					Templates: tmpl, Clients: 9, TxnsPerClient: 20,
					Strategy: c.strat, Seed: 17,
				})
				if err != nil {
					b.Fatal(err)
				}
				if m.Stalled {
					b.Fatal("stalled")
				}
			}
		})
	}
}

// --- Micro-benchmarks of the substrate ---

// BenchmarkFreeze measures transaction validation + transitive closure:
// build a fresh ordered-2PL chain over k entities and freeze it.
func BenchmarkFreeze(b *testing.B) {
	for _, k := range []int{16, 128} {
		d := model.NewDDB()
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("e%d", i)
			d.MustEntity(names[i], fmt.Sprintf("s%d", i%4))
		}
		b.Run(fmt.Sprintf("entities=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld := model.NewBuilder(d, "T")
				var prev model.NodeID = -1
				for _, n := range names {
					id := bld.Lock(n)
					if prev >= 0 {
						bld.Arc(prev, id)
					}
					prev = id
				}
				for _, n := range names {
					id := bld.Unlock(n)
					bld.Arc(prev, id)
					prev = id
				}
				if _, err := bld.Freeze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleReplay measures legality checking of long schedules.
func BenchmarkScheduleReplay(b *testing.B) {
	sys := workload.MustGenerate(workload.Config{
		Sites: 2, EntitiesPerSite: 8, NumTxns: 4, EntitiesPerTxn: 8,
		Policy: workload.PolicyOrdered, Seed: 3,
	})
	// Serial schedule.
	var steps []schedule.Step
	for i, t := range sys.Txns {
		for n := 0; n < t.N(); n++ {
			steps = append(steps, schedule.Step{Txn: i, Node: model.NodeID(n)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !schedule.IsCompleteSchedule(sys, steps) {
			b.Fatal("serial schedule rejected")
		}
	}
}

// BenchmarkGadgetBuild measures Theorem 2 gadget construction.
func BenchmarkGadgetBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	f, err := sat.Random3SATPrime(6, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reduction.Build(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPLL measures the SAT solver on random 3SAT'.
func BenchmarkDPLL(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var fs []*sat.Formula
	for i := 0; i < 16; i++ {
		f, err := sat.Random3SATPrime(8, rng)
		if err != nil {
			b.Fatal(err)
		}
		fs = append(fs, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat.Solve(fs[i%len(fs)])
	}
}

// admissionClasses generates n mutually certifiable (ordered two-phase)
// classes over one database for the admission benchmarks.
func admissionClasses(n int, seed int64) (*model.DDB, []*model.Transaction) {
	sys := workload.MustGenerate(workload.Config{
		Sites: 8, EntitiesPerSite: 4, NumTxns: n, EntitiesPerTxn: 3,
		Policy: workload.PolicyOrdered, Seed: seed,
	})
	return sys.DDB, sys.Txns
}

// BenchmarkAdmission measures the online admission service: cold admission
// (empty verdict cache) against warm re-admission after churn (every pair
// verdict cached by fingerprint), and one-at-a-time admission against
// batched admission of the same classes.
func BenchmarkAdmission(b *testing.B) {
	const n = 12
	ddb, classes := admissionClasses(n, 21)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc := admission.New(ddb, admission.Options{})
			for _, t := range classes {
				if r, err := svc.Admit(context.Background(), t); err != nil || !r.Admitted {
					b.Fatalf("ordered class rejected: %+v %v", r, err)
				}
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		// One long-lived service: the first admissions fill the cache, then
		// each iteration churns every class out and back in. Re-admission
		// must cost zero PairSafeDF evaluations.
		svc := admission.New(ddb, admission.Options{})
		for _, t := range classes {
			if r, err := svc.Admit(context.Background(), t); err != nil || !r.Admitted {
				b.Fatalf("ordered class rejected: %+v %v", r, err)
			}
		}
		filled := svc.Stats().PairChecks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range classes {
				svc.Evict(t.Name())
			}
			for _, t := range classes {
				if r, err := svc.Admit(context.Background(), t); err != nil || !r.Admitted {
					b.Fatalf("ordered class rejected on re-admission: %+v %v", r, err)
				}
			}
		}
		b.StopTimer()
		if got := svc.Stats().PairChecks; got != filled {
			b.Fatalf("warm re-admissions evaluated %d extra pairs, want 0", got-filled)
		}
	})

	b.Run("one-at-a-time", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc := admission.New(ddb, admission.Options{})
			for _, t := range classes {
				if _, err := svc.Admit(context.Background(), t); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc := admission.New(ddb, admission.Options{})
			rs, err := svc.AdmitBatch(context.Background(), classes)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rs {
				if !r.Admitted {
					b.Fatalf("ordered class rejected in batch: %+v", r)
				}
			}
		}
	})

	// One churn trace replayed under a cycle budget: at multiplicity 2, as
	// the admit-churn workload drives it, straight into the admission
	// service and through the facade with its default options; and at
	// multiplicity 3, where the walk's shapes are longer.
	churnDDB, trace, err := workload.ChurnTrace(workload.Config{
		Sites: 8, EntitiesPerSite: 8, EntitiesPerTxn: 3,
		Policy: workload.PolicyChurn, Seed: 1,
	}, 100, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{2, 3} {
		b.Run(fmt.Sprintf("churn-m%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				svc := admission.New(churnDDB, admission.Options{Multiplicity: m, CycleBudget: 32})
				for _, ev := range trace {
					if !ev.Arrive {
						svc.Evict(ev.Txn.Name())
					} else if _, err := svc.Admit(context.Background(), ev.Txn); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}

	b.Run("churn-m2-facade", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc, err := distlock.Open(churnDDB, distlock.WithCycleBudget(32), distlock.WithMultiplicity(2))
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range trace {
				if !ev.Arrive {
					svc.Deregister(ev.Txn.Name())
				} else if _, err := svc.Register(context.Background(), ev.Txn); err != nil {
					b.Fatal(err)
				}
			}
			if err := svc.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionCycle measures certified transactions through the public
// facade on the in-process table, shaped like the local-rw benchmark
// workload: a Zipf read-mostly class set, two goroutines, each the only
// driver of its half of the classes (client c runs classes c, c+2, ...).
// One op is one transaction: Begin, the class program's Locks and Unlocks
// in template order, Commit.
func BenchmarkSessionCycle(b *testing.B) {
	const clients = 2
	sys, err := distlock.GenerateWorkload(distlock.WorkloadConfig{
		Sites: 4, EntitiesPerSite: 8, NumTxns: 8, EntitiesPerTxn: 3,
		Policy: distlock.PolicyZipf, ZipfS: 1.2, ReadFraction: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := distlock.Open(sys.DDB)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	rs, err := svc.RegisterBatch(ctx, sys.Txns)
	if err != nil {
		b.Fatal(err)
	}
	type step struct {
		lock   bool
		entity string
		mode   distlock.Mode
	}
	progs := make([][]step, len(sys.Txns))
	for i, t := range sys.Txns {
		if !rs[i].Admitted {
			b.Fatalf("class %s not certified: %s", t.Name(), rs[i].Reason)
		}
		for _, nid := range t.Order() {
			nd := t.Node(nid)
			progs[i] = append(progs[i], step{nd.Kind == model.LockOp, sys.DDB.EntityName(nd.Entity), nd.Mode})
		}
	}
	perClient := len(sys.Txns) / clients
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq*clients+c < b.N; seq++ {
				cls := c + clients*(seq%perClient)
				sess, err := svc.Begin(ctx, sys.Txns[cls].Name())
				if err != nil {
					b.Error(err)
					return
				}
				for _, st := range progs[cls] {
					if st.lock {
						err = sess.Lock(ctx, st.entity, st.mode)
					} else {
						err = sess.Unlock(st.entity)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
				if err := sess.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkE11EarlyUnlock measures the Theorem-4-guarded early-unlock
// optimizer on the E11 workload.
func BenchmarkE11EarlyUnlock(b *testing.B) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	d.MustEntity("p", "s2")
	d.MustEntity("q", "s3")
	d.MustEntity("r", "s1")
	chain := func(name string, specs ...string) *model.Transaction {
		bld := model.NewBuilder(d, name)
		var prev model.NodeID = -1
		for _, s := range specs {
			var id model.NodeID
			if s[0] == 'L' {
				id = bld.Lock(s[1:])
			} else {
				id = bld.Unlock(s[1:])
			}
			if prev >= 0 {
				bld.Arc(prev, id)
			}
			prev = id
		}
		return bld.MustFreeze()
	}
	sys := model.MustSystem(d,
		chain("A", "Lx", "Ly", "Uy", "Lp", "Up", "Ux"),
		chain("B", "Lx", "Ly", "Uy", "Lq", "Uq", "Ux"),
		chain("C", "Lx", "Lz", "Uz", "Lr", "Ur", "Ux"),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := optimize.EarlyUnlock(sys)
		if err != nil {
			b.Fatal(err)
		}
		if res.HeldAfter >= res.HeldBefore {
			b.Fatal("optimizer stopped improving")
		}
	}
}
