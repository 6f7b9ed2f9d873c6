// Command dlcheck analyzes a transaction system described in the text
// format of internal/parse and reports, per the paper's results:
//
//   - the Theorem 3 verdict for every interacting pair,
//   - the Theorem 4 verdict for the whole system (with a violating cycle
//     and a concrete bad partial schedule when it fails),
//   - optionally (-brute, small systems only) the exhaustive Lemma-1,
//     safety-only, and deadlock-freedom-only verdicts,
//   - optionally (-tirri) the flawed baseline test from [T] for comparison.
//
// Usage:
//
//	dlcheck [-brute] [-tirri] [-max-states N] file.txn
//	cat file.txn | dlcheck -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"distlock/internal/baseline"
	"distlock/internal/core"
	"distlock/internal/model"
	"distlock/internal/parse"
	"distlock/internal/schedule"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main with its arguments and report stream injected, so the
// command's test can drive it; it returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dlcheck", flag.ContinueOnError)
	brute := fs.Bool("brute", false, "also run the exhaustive oracles (exponential; small systems only)")
	tirri := fs.Bool("tirri", false, "also run Tirri's (flawed) pairwise deadlock test")
	maxStates := fs.Int("max-states", 1<<20, "state budget for -brute")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dlcheck [flags] <file.txn | ->\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	var r io.Reader
	if fs.Arg(0) == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	sys, err := parse.System(r)
	if err != nil {
		return fail(fmt.Errorf("parse: %w", err))
	}

	fmt.Fprintf(stdout, "system: %d transactions, %d entities, %d sites, %d operation nodes\n",
		sys.N(), sys.DDB.NumEntities(), sys.DDB.NumSites(), sys.TotalNodes())
	ig := sys.InteractionGraph()
	fmt.Fprintf(stdout, "interaction graph: %d edges, %d simple cycles\n\n", ig.NumEdges(), ig.CountSimpleCycles())

	// Pairwise (Theorem 3).
	fmt.Fprintln(stdout, "pairwise safe-and-deadlock-free (Theorem 3):")
	for i := 0; i < sys.N(); i++ {
		for j := i + 1; j < sys.N(); j++ {
			common := model.CommonEntities(sys.Txns[i], sys.Txns[j])
			if len(common) == 0 {
				continue
			}
			rep := core.PairSafeDF(sys.Txns[i], sys.Txns[j])
			verdict := "SAFE+DF"
			detail := ""
			if rep.SafeDF {
				if rep.FirstLock >= 0 {
					detail = fmt.Sprintf(" (first common lock: %s)", sys.DDB.EntityName(rep.FirstLock))
				}
			} else {
				verdict = "VIOLATION"
				detail = " — " + rep.Reason
			}
			fmt.Fprintf(stdout, "  (%s, %s): %s%s\n", sys.Txns[i].Name(), sys.Txns[j].Name(), verdict, detail)
			if *tirri {
				fmt.Fprintf(stdout, "      Tirri's test: deadlock-free=%v (unsound for distributed transactions)\n",
					baseline.TirriDeadlockFree(sys.Txns[i], sys.Txns[j]))
			}
		}
	}

	// Whole system (Theorem 4).
	fmt.Fprintln(stdout, "\nsystem safe-and-deadlock-free (Theorem 4):")
	ok, viol := core.SystemSafeDF(sys)
	if ok {
		fmt.Fprintln(stdout, "  SAFE AND DEADLOCK-FREE — the mix can run with no runtime deadlock handling")
	} else {
		fmt.Fprintf(stdout, "  VIOLATION: %s\n", viol)
		if viol.Pair == nil {
			names := make([]string, len(viol.Cycle))
			for i, t := range viol.Cycle {
				names[i] = sys.Txns[t].Name()
			}
			fmt.Fprintf(stdout, "  cycle: %v\n", names)
			steps := viol.BuildSchedule()
			fmt.Fprintf(stdout, "  witness partial schedule (%d steps):", len(steps))
			for _, s := range steps {
				fmt.Fprintf(stdout, " %s.%s", sys.Txns[s.Txn].Name(), sys.Txns[s.Txn].Label(s.Node))
			}
			fmt.Fprintln(stdout)
		}
	}

	if *brute {
		fmt.Fprintln(stdout, "\nexhaustive oracles (-brute):")
		opt := core.BruteOptions{MaxStates: *maxStates}
		both, w, err := core.IsSafeAndDeadlockFreeBrute(sys, opt)
		report(stdout, "safe ∧ deadlock-free (Lemma 1)", both, err)
		if w != nil {
			fmt.Fprintf(stdout, "      witness: %s\n", formatSteps(sys, w.Steps))
		}
		safe, _, err := core.IsSafeBrute(sys, opt)
		report(stdout, "safe", safe, err)
		dl, err := core.FindDeadlock(sys, opt)
		if err != nil {
			report(stdout, "deadlock-free", false, err)
		} else {
			report(stdout, "deadlock-free", dl == nil, nil)
			if dl != nil {
				fmt.Fprintf(stdout, "      deadlock after: %s\n", formatSteps(sys, dl.Steps))
			}
		}
	}
	return 0
}

func report(w io.Writer, what string, ok bool, err error) {
	switch {
	case err != nil:
		fmt.Fprintf(w, "  %-32s ERROR: %v\n", what+":", err)
	case ok:
		fmt.Fprintf(w, "  %-32s YES\n", what+":")
	default:
		fmt.Fprintf(w, "  %-32s NO\n", what+":")
	}
}

func formatSteps(sys *model.System, steps []schedule.Step) string {
	s := ""
	for i, st := range steps {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s.%s", sys.Txns[st.Txn].Name(), sys.Txns[st.Txn].Label(st.Node))
	}
	return s
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dlcheck:", err)
	return 1
}
