// Figures: regenerate and verify every figure of the paper — the worked
// deadlock-prefix example (Fig 1), the Tirri counterexample (Fig 2), the
// linear-extension non-reduction (Fig 3), the Theorem 2 gadget for the
// worked formula (Figs 4–5), and the 2-vs-3-copies asymmetry (Fig 6).
//
// Run with: go run ./examples/figures
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"distlock"
	"distlock/internal/figures"
	"distlock/internal/schedule"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example with its output stream injected, so the
// example's test can drive it. It stops at the first figure whose claim
// fails to verify.
func run(w io.Writer) error {
	// Fig 1: show the system, the prefix, and the cycle.
	sys, prefixes := figures.Fig1()
	fmt.Fprintln(w, "Figure 1 — three transactions over two sites:")
	for _, t := range sys.Txns {
		fmt.Fprintf(w, "  %v\n", t)
	}
	rg, err := distlock.NewReductionGraph(sys, prefixes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  prefix {L1y, L2x, L3z} is a deadlock prefix; R(A') cycle: %s\n",
		schedule.FormatCycle(sys, rg.Cycle()))
	if err := verified(w, "Fig1", figures.VerifyFig1()); err != nil {
		return err
	}

	// Fig 2.
	t2 := figures.Fig2()
	fmt.Fprintf(w, "\nFigure 2 — the transaction that defeats Tirri's algorithm:\n  %v\n", t2)
	pair, err := distlock.Copies(t2, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Tirri's test says deadlock-free: %v\n",
		distlock.TirriDeadlockFree(pair.Txns[0], pair.Txns[1]))
	dl, err := distlock.FindDeadlockPrefix(pair, distlock.BruteOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  exhaustive search finds the 4-entity deadlock cycle: %s\n",
		schedule.FormatCycle(pair, dl.Cycle))
	if err := verified(w, "Fig2", figures.VerifyFig2()); err != nil {
		return err
	}

	// Fig 3.
	t3 := figures.Fig3()
	fmt.Fprintf(w, "\nFigure 3 — DF does not reduce to linear extensions:\n  %v\n", t3)
	fmt.Fprintln(w, "  two copies: deadlock-free; extensions LxLyUxUy vs LyLxUyUx: deadlock")
	if err := verified(w, "Fig3", figures.VerifyFig3()); err != nil {
		return err
	}

	// Figs 4–5.
	g, err := figures.Figs4And5()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nFigures 4-5 — Theorem 2 gadget for %v:\n", g.Formula)
	fmt.Fprintf(w, "  %d entities (c_i, c'_i, x_j, x'_j, x''_j), one site each; %d ops per transaction\n",
		g.Sys.DDB.NumEntities(), g.Sys.Txns[0].N())
	if err := verified(w, "Figs4-5", figures.VerifyFigs4And5()); err != nil {
		return err
	}

	// Fig 6.
	t6 := figures.Fig6()
	fmt.Fprintf(w, "\nFigure 6 — Theorem 5 fails for deadlock-freedom alone:\n  %v\n", t6)
	fmt.Fprintln(w, "  2 copies deadlock-free, 3 copies deadlock")
	if err := verified(w, "Fig6", figures.VerifyFig6()); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nall figure claims verified ✓")
	return nil
}

// verified reports the outcome of one figure's verification: a line on w
// if it passed, else an error naming the figure.
func verified(w io.Writer, name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s verification FAILED: %w", name, err)
	}
	fmt.Fprintf(w, "  -> %s claim verified\n", name)
	return nil
}
