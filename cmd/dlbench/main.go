// Command dlbench regenerates the paper-reproduction experiments (E1–E11):
// the verified reconstructions of the paper's figures, the Theorem 2
// reduction validation, the scaling comparisons of the polynomial
// algorithms against each other and against the exhaustive oracles, the
// simulated prevention-vs-detection comparison that motivates the paper,
// and the early-unlock optimizer. Runtime performance is measured by
// ./benchmark, not here.
//
// Usage:
//
//	dlbench            # run everything
//	dlbench -run E6    # run one experiment
//	dlbench -json      # machine-readable timings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"time"

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

// expResult is one experiment's machine-readable record: wall time plus
// the PairSafeDF evaluations it performed (the repo's portable op-count
// proxy — comparable across machines, unlike wall time).
type expResult struct {
	ID        string  `json:"id"`
	ElapsedMS float64 `json:"elapsed_ms"`
	PairEvals int64   `json:"pair_evals"`
}

// benchReport is the -json output: one record per experiment, with enough
// host context to interpret the timings.
type benchReport struct {
	Go          string      `json:"go"`
	OS          string      `json:"os"`
	Arch        string      `json:"arch"`
	Experiments []expResult `json:"experiments"`
}

func main() {
	run := flag.String("run", "", "run only this experiment (E1..E11)")
	jsonOut := flag.Bool("json", false, "emit machine-readable results on stdout (experiment prose suppressed)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	report, ran := runExperiments(*run, *jsonOut)
	if !ran {
		fmt.Fprintf(os.Stderr, "dlbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
	}
}

// experiments are the paper-reproduction experiments, in run order.
var experiments = []struct {
	id string
	fn func()
}{
	{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5},
	{"E6", e6}, {"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10}, {"E11", e11},
}

// runExperiments runs every experiment, or only the one named by only
// (case-insensitive), and reports whether any ran. With jsonOut each is
// timed into the report with its prose suppressed; otherwise each prints
// its prose under a header.
func runExperiments(only string, jsonOut bool) (benchReport, bool) {
	report := benchReport{Go: goruntime.Version(), OS: goruntime.GOOS, Arch: goruntime.GOARCH}
	ran := false
	for _, e := range experiments {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		ran = true
		if jsonOut {
			report.Experiments = append(report.Experiments, timeExperiment(e.id, e.fn))
			continue
		}
		fmt.Printf("==== %s ====\n", e.id)
		e.fn()
		fmt.Println()
	}
	return report, ran
}

// timeExperiment runs one experiment with its prose diverted to /dev/null
// (the experiments print through os.Stdout) and records wall time and
// pair-evaluation count.
func timeExperiment(id string, fn func()) expResult {
	real := os.Stdout
	if null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0); err == nil {
		os.Stdout = null
		defer func() {
			os.Stdout = real
			null.Close()
		}()
	}
	evalsBefore := core.PairEvalCount()
	start := time.Now()
	fn()
	return expResult{
		ID:        id,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		PairEvals: core.PairEvalCount() - evalsBefore,
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		os.Exit(1)
	}
}

// E1: Figure 1 — the worked deadlock-prefix example.
func e1() {
	sys, prefixes := figures.Fig1()
	rg, err := schedule.NewReductionGraph(sys, prefixes)
	check(err)
	cyc := rg.Cycle()
	fmt.Printf("Fig 1 prefix {L1y, L2x, L3z}: deadlock prefix = %v\n", cyc != nil)
	fmt.Printf("reduction-graph cycle: %s\n", schedule.FormatCycle(sys, cyc))
	check(figures.VerifyFig1())
	fmt.Println("paper claim (cycle through U1y L2y U2x L3x U3z L1z): VERIFIED")
}

// E2: Figure 2 — Tirri's algorithm is wrong.
func e2() {
	t := figures.Fig2()
	sys := model.MustCopies(t, 2)
	tirriSays := baseline.TirriDeadlockFree(sys.Txns[0], sys.Txns[1])
	w, err := core.FindDeadlockPrefix(sys, core.BruteOptions{})
	check(err)
	fmt.Printf("two copies of the Fig 2 transaction:\n")
	fmt.Printf("  Tirri's polynomial test:   deadlock-free = %v\n", tirriSays)
	fmt.Printf("  exhaustive Theorem-1 search: deadlock-free = %v\n", w == nil)
	if w != nil {
		fmt.Printf("  witness cycle: %s\n", schedule.FormatCycle(sys, w.Cycle))
	}
	check(figures.VerifyFig2())
	fmt.Println("paper claim (Tirri misses a >2-entity deadlock): VERIFIED")
}

// E3: Figure 3 — DF does not reduce to linear extensions.
func e3() {
	check(figures.VerifyFig3())
	fmt.Println("two copies of (Lx Ux || Ly Uy): deadlock-free = true")
	fmt.Println("extensions t1=LxLyUxUy, t2=LyLxUyUx: deadlock-free = false")
	fmt.Println("paper claim: VERIFIED")
}

// E4: Theorem 2 — SAT(F) ⟺ deadlock prefix in the gadget.
func e4() {
	rng := rand.New(rand.NewSource(2026))
	fmt.Println("formula                         vars clauses entities  SAT  deadlock  agree")
	checked := 0
	for trial := 0; trial < 200 && checked < 12; trial++ {
		n := 1 + rng.Intn(2)
		f, err := sat.Random3SATPrime(n, rng)
		check(err)
		ents := 2*len(f.Clauses) + 3*n
		if ents > 13 {
			continue
		}
		checked++
		g, err := reduction.Build(f)
		check(err)
		isSat := sat.Solve(f) != nil
		dl, err := reduction.HasLockOnlyDeadlockPrefix(g.Sys)
		check(err)
		fmt.Printf("%-32s %3d %6d %8d %5v %8v %6v\n",
			f, n, len(f.Clauses), ents, isSat, dl, isSat == dl)
		if isSat != dl {
			check(fmt.Errorf("Theorem 2 equivalence FAILED on %v", f))
		}
	}
	// Witness-side validation on larger formulas.
	validated := 0
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(6)
		f, err := sat.Random3SATPrime(n, rng)
		check(err)
		assign := sat.Solve(f)
		if assign == nil {
			continue
		}
		g, err := reduction.Build(f)
		check(err)
		prefixes, err := g.WitnessPrefix(assign)
		check(err)
		rg, err := schedule.NewReductionGraph(g.Sys, prefixes)
		check(err)
		if !rg.HasCycle() {
			check(fmt.Errorf("witness acyclic for %v", f))
		}
		validated++
	}
	fmt.Printf("witness construction validated on %d larger satisfiable formulas (n up to 8)\n", validated)
	check(figures.VerifyFigs4And5())
	fmt.Println("paper example (x1+x2)(x1+!x2)(!x1+x2): VERIFIED end to end")
}

// E5: Figure 6 — Theorem 5 fails for deadlock-freedom alone.
func e5() {
	t := figures.Fig6()
	for d := 2; d <= 3; d++ {
		sys := model.MustCopies(t, d)
		df, err := core.IsDeadlockFreeBrute(sys, core.BruteOptions{})
		check(err)
		fmt.Printf("%d copies of the Fig 6 transaction: deadlock-free = %v\n", d, df)
	}
	check(figures.VerifyFig6())
	fmt.Println("paper claim (2 copies DF, 3 copies deadlock): VERIFIED")
}

// e6Pair builds a safe+DF-shaped pair with k common entities (~4k nodes
// per transaction).
func e6Pair(k int, seed int64) (*model.Transaction, *model.Transaction) {
	cfg := workload.Config{Sites: 4, EntitiesPerSite: (k + 3) / 4, NumTxns: 2,
		EntitiesPerTxn: k, Policy: workload.PolicyOrdered, Seed: seed}
	sys := workload.MustGenerate(cfg)
	return sys.Txns[0], sys.Txns[1]
}

// E6: scaling of Theorem 3 vs the O(n³) minimal-prefix algorithm.
func e6() {
	fmt.Println("entities  nodes/txn  Thm3(µs)  minPrefix(µs)  ratio")
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		t1, t2 := e6Pair(k, int64(k))
		reps := 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			core.PairSafeDF(t1, t2)
		}
		thm3 := time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			core.PairSafeDFMinimalPrefix(t1, t2)
		}
		minp := time.Since(start) / time.Duration(reps)
		ratio := float64(minp) / float64(thm3)
		fmt.Printf("%8d %10d %9.1f %14.1f %6.2f\n",
			k, t1.N(), float64(thm3.Microseconds()), float64(minp.Microseconds()), ratio)
	}
	fmt.Println("expected shape: both polynomial; Theorem 3 asymptotically cheaper (O(n²) vs O(n³))")
}

// E7: copy criteria (Corollary 3 / Theorem 5) vs full Theorem 4 on d copies.
func e7() {
	fmt.Println("entities  d   Cor3(µs)  Thm4-on-copies(µs)  agree")
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{4, 8, 16} {
		for _, d := range []int{2, 3, 4} {
			cfg := workload.Config{Sites: 2, EntitiesPerSite: (k + 1) / 2, NumTxns: 1,
				EntitiesPerTxn: k, Policy: workload.PolicyOrdered, Seed: rng.Int63()}
			sys, err := workload.CopiesOf(cfg, d)
			check(err)
			base := sys.Txns[0]
			start := time.Now()
			got := core.CopiesSafeDF(base, d)
			cor3 := time.Since(start)
			start = time.Now()
			want, _ := core.SystemSafeDF(sys)
			thm4 := time.Since(start)
			fmt.Printf("%8d %3d %9.1f %19.1f %6v\n",
				k, d, float64(cor3.Microseconds()), float64(thm4.Microseconds()), got == want)
			if got != want {
				check(fmt.Errorf("Theorem 5 disagreement at k=%d d=%d", k, d))
			}
		}
	}
	fmt.Println("expected shape: Corollary 3 is constant in d; Theorem 4 grows with cycle count (d-1)!/2-ish")
}

// E8: Theorem 4 cost tracks interaction-graph cycle count.
func e8() {
	fmt.Println("txns  entities/txn  IG-edges  IG-cycles  Thm4(µs)  verdict")
	for _, d := range []int{3, 4, 5, 6} {
		sys := workload.MustGenerate(workload.Config{
			Sites: 2, EntitiesPerSite: 3, NumTxns: d, EntitiesPerTxn: 3,
			Policy: workload.PolicyOrdered, Seed: int64(d) * 11,
		})
		ig := sys.InteractionGraph()
		start := time.Now()
		ok, _ := core.SystemSafeDF(sys)
		el := time.Since(start)
		fmt.Printf("%4d %13d %9d %10d %9.1f %8v\n",
			d, 3, ig.NumEdges(), ig.CountSimpleCycles(), float64(el.Microseconds()), ok)
	}
	fmt.Println("expected shape: time grows with the number of interaction-graph cycles, not with n")
}

// E9: the coNP blow-up — exhaustive search cost vs system size. Ordered
// (deadlock-free) pairs force the search to exhaust the whole reachable
// state space, exposing the exponential cost that Theorem 2 predicts is
// unavoidable in the worst case; compare the Theorem 3 column, which
// decides safe∧DF for the same pair in polynomial time.
func e9() {
	// Gadget-shaped (lock-arc-only, fully parallel) pairs: every subset of
	// Lock nodes is a reachable prefix, so complete deadlock decision costs
	// ~3^k. Centralized chains, by contrast, have only a quadratic state
	// space — the hardness comes from distribution (many sites), exactly as
	// Theorem 2 locates it.
	// The coNP-hard direction is certifying freedom, so measure on
	// deadlock-free instances (where the search cannot short-circuit).
	fmt.Println("entities  nodes-total  certify-DF(ms)")
	for _, k := range []int{4, 6, 8, 10, 12} {
		var sys *model.System
		for seed := int64(1); ; seed++ {
			cand := workload.LockArcOnlySystem(k, 2, 0.08, seed)
			has, err := reduction.HasLockOnlyDeadlockPrefix(cand)
			check(err)
			if !has {
				sys = cand
				break
			}
		}
		start := time.Now()
		_, err := reduction.HasLockOnlyDeadlockPrefix(sys)
		check(err)
		el := time.Since(start)
		fmt.Printf("%8d %12d %14.2f\n",
			k, sys.TotalNodes(), float64(el.Microseconds())/1000)
	}
	fmt.Println("expected shape: ~3^k growth — deciding DF of two distributed transactions is coNP-complete (Theorem 2)")
}

// E10: prevention (static certification) vs dynamic schemes.
func e10() {
	type wl struct {
		name      string
		templates []*model.Transaction
	}
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	chain := func(tname string, specs ...string) *model.Transaction {
		b := model.NewBuilder(d, tname)
		var prev model.NodeID = -1
		for _, s := range specs {
			var id model.NodeID
			if s[0] == 'L' {
				id = b.Lock(s[1:])
			} else {
				id = b.Unlock(s[1:])
			}
			if prev >= 0 {
				b.Arc(prev, id)
			}
			prev = id
		}
		return b.MustFreeze()
	}
	wls := []wl{
		{"certified-ordered", []*model.Transaction{
			chain("A", "Lx", "Ly", "Ux", "Uy"),
			chain("B", "Lx", "Lz", "Ux", "Uz"),
			chain("C", "Ly", "Lz", "Uy", "Uz"),
		}},
		{"deadlock-ring", []*model.Transaction{
			chain("A", "Lx", "Ly", "Ux", "Uy"),
			chain("B", "Ly", "Lz", "Uy", "Uz"),
			chain("C", "Lz", "Lx", "Uz", "Ux"),
		}},
	}
	strategies := []sim.Strategy{
		sim.StrategyNone, sim.StrategyDetect, sim.StrategyWoundWait,
		sim.StrategyWaitDie, sim.StrategyTimeout, sim.StrategyProbe,
	}
	for _, w := range wls {
		sys := model.MustSystem(d, w.templates...)
		certified, _ := core.SystemSafeDF(sys)
		fmt.Printf("workload %-18s statically certified safe+DF: %v\n", w.name, certified)
		fmt.Println("  strategy        committed  aborts  makespan  meanLat  thru(c/kT)  stalled")
		for _, strat := range strategies {
			m, err := sim.Run(sim.Config{
				Templates: w.templates, Clients: 9, TxnsPerClient: 40,
				Strategy: strat, Seed: 17,
			})
			check(err)
			fmt.Printf("  %-15s %9d %7d %9d %8.1f %11.2f %8v\n",
				strat, m.Committed, m.Aborts, m.Makespan, m.MeanLatency(), m.Throughput(), m.Stalled)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: certified mix runs deadlock-free with zero aborts and no detector cost;")
	fmt.Println("the uncertified ring stalls under 'certified-none' and needs a dynamic scheme to finish")
}

// E11 (extension): the [W2]-style early-unlock optimizer cited in the
// paper's introduction. Hoist unlocks while preserving safe∧DF (verified
// with Theorem 4 after every move), then measure the effect on simulated
// contention.
func e11() {
	d := model.NewDDB()
	d.MustEntity("x", "s1") // the shared gate entity
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	d.MustEntity("p", "s2") // private per-transaction work
	d.MustEntity("q", "s3")
	d.MustEntity("r", "s1")
	chain := func(tname string, specs ...string) *model.Transaction {
		b := model.NewBuilder(d, tname)
		var prev model.NodeID = -1
		for _, sp := range specs {
			var id model.NodeID
			if sp[0] == 'L' {
				id = b.Lock(sp[1:])
			} else {
				id = b.Unlock(sp[1:])
			}
			if prev >= 0 {
				b.Arc(prev, id)
			}
			prev = id
		}
		return b.MustFreeze()
	}
	// Conservative programs: the shared gate x is held to the very end,
	// across each transaction's private-entity work.
	sys := model.MustSystem(d,
		chain("A", "Lx", "Ly", "Uy", "Lp", "Up", "Ux"),
		chain("B", "Lx", "Ly", "Uy", "Lq", "Uq", "Ux"),
		chain("C", "Lx", "Lz", "Uz", "Lr", "Ur", "Ux"),
	)
	res, err := optimize.EarlyUnlock(sys)
	check(err)
	fmt.Printf("holding cost: %d -> %d (%d moves applied, %d rejected by the Theorem-4 guard)\n",
		res.HeldBefore, res.HeldAfter, res.MovesApplied, res.MovesRejected)
	for _, variant := range []struct {
		name string
		s    *model.System
	}{{"original", sys}, {"early-unlock", res.Sys}} {
		ok, _ := core.SystemSafeDF(variant.s)
		m, err := sim.Run(sim.Config{
			Templates: variant.s.Txns, Clients: 9, TxnsPerClient: 40,
			Strategy: sim.StrategyNone, Seed: 23,
		})
		check(err)
		fmt.Printf("  %-13s certified=%v committed=%d makespan=%d meanLat=%.1f thru=%.2f\n",
			variant.name, ok, m.Committed, m.Makespan, m.MeanLatency(), m.Throughput())
	}
	fmt.Println("expected shape: optimizer reduces holding cost, preserves certification, improves latency under contention")
}

// nsToUS converts a histogram-snapshot nanosecond figure to microseconds.
