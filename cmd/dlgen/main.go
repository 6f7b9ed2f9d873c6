// Command dlgen generates random transaction systems in dlcheck's text
// format — convenient for exploring the checkers on synthetic workloads:
//
//	dlgen -sites 3 -entities 6 -txns 4 -per-txn 3 -policy ordered -seed 7 > sys.txn
//	dlcheck sys.txn
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"distlock/internal/parse"
	"distlock/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the
// command's test can drive it; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sites := fs.Int("sites", 3, "number of database sites")
	entities := fs.Int("entities", 6, "total number of entities (spread round-robin over sites)")
	txns := fs.Int("txns", 4, "number of transactions")
	perTxn := fs.Int("per-txn", 3, "entities accessed per transaction")
	policy := fs.String("policy", "ordered", "locking policy: random, twophase, ordered")
	cross := fs.Float64("cross", 0.3, "cross-site arc probability (random policy)")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	pol, ok := map[string]workload.Policy{
		"random": workload.PolicyRandom, "twophase": workload.PolicyTwoPhase,
		"ordered": workload.PolicyOrdered,
	}[*policy]
	if !ok {
		fmt.Fprintf(stderr, "dlgen: unknown policy %q\n", *policy)
		return 2
	}
	if *sites < 1 || *entities < *sites {
		fmt.Fprintln(stderr, "dlgen: need at least one entity per site")
		return 2
	}
	sys, err := workload.Generate(workload.Config{
		Sites: *sites, EntitiesPerSite: *entities / *sites, NumTxns: *txns,
		EntitiesPerTxn: *perTxn, Policy: pol, CrossArcProb: *cross, Seed: *seed,
	})
	if err == nil {
		err = parse.Write(stdout, sys)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dlgen:", err)
		return 1
	}
	return 0
}
