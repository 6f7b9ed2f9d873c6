// SAT-by-deadlock: Theorem 2 in action. We take a 3SAT' formula, compile
// it into two distributed transactions with the paper's gadget, and decide
// satisfiability by asking whether the pair has a deadlock prefix —
// cross-checking against a DPLL solver, and exhibiting the witness
// deadlock prefix (with its reduction-graph cycle) for the satisfiable
// case.
//
// Run with: go run ./examples/satreduction
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"distlock"
	"distlock/internal/reduction"
	"distlock/internal/sat"
	"distlock/internal/schedule"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example with its output stream injected, so the
// example's test can drive it.
func run(w io.Writer) error {
	// The paper's own example (Figure 5): (x1 + x2)(x1 + !x2)(!x1 + x2).
	formula := &sat.Formula{NumVars: 2, Clauses: []sat.Clause{
		{{Var: 0}, {Var: 1}},
		{{Var: 0}, {Var: 1, Neg: true}},
		{{Var: 0, Neg: true}, {Var: 1}},
	}}
	if err := decide(w, formula); err != nil {
		return err
	}

	// And the smallest unsatisfiable 3SAT' instance: (x)(x)(!x).
	unsat := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{
		{{Var: 0}}, {{Var: 0}}, {{Var: 0, Neg: true}},
	}}
	return decide(w, unsat)
}

func decide(w io.Writer, f *sat.Formula) error {
	fmt.Fprintf(w, "formula: %v\n", f)

	g, err := distlock.BuildGadget(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gadget: 2 transactions, %d entities across %d sites, %d ops each\n",
		g.Sys.DDB.NumEntities(), g.Sys.DDB.NumSites(), g.Sys.Txns[0].N())

	// Decide satisfiability via deadlock-prefix existence (complete for
	// the gadget's lock-arc-only shape).
	hasDeadlock, err := reduction.HasLockOnlyDeadlockPrefix(g.Sys)
	if err != nil {
		return err
	}
	dpll := distlock.SolveSAT(f)
	fmt.Fprintf(w, "deadlock prefix exists: %v  |  DPLL says satisfiable: %v  |  agree: %v\n",
		hasDeadlock, dpll != nil, hasDeadlock == (dpll != nil))
	if hasDeadlock != (dpll != nil) {
		return errors.New("Theorem 2 equivalence violated")
	}

	if dpll != nil {
		// Exhibit the witness: a prefix of lock steps whose reduction
		// graph is cyclic, built straight from the satisfying assignment.
		prefixes, err := g.WitnessPrefix(dpll)
		if err != nil {
			return err
		}
		rg, err := distlock.NewReductionGraph(g.Sys, prefixes)
		if err != nil {
			return err
		}
		cyc := rg.Cycle()
		fmt.Fprintf(w, "assignment %v -> deadlock prefix T1'=%d locks, T2'=%d locks\n",
			dpll, prefixes[0].Size(), prefixes[1].Size())
		fmt.Fprintf(w, "reduction-graph cycle: %s\n", schedule.FormatCycle(g.Sys, cyc))

		// And decode the cycle back into an assignment.
		decoded := g.DecodeAssignment(cyc)
		fmt.Fprintf(w, "decoded back from the cycle: %v (satisfies: %v)\n", decoded, f.Eval(decoded))
	}
	fmt.Fprintln(w)
	return nil
}
