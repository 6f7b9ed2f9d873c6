// Command dlsim runs the deterministic discrete-event distributed-database
// simulator on a built-in or user-supplied workload under a chosen
// deadlock-handling strategy, and prints throughput/abort metrics. It
// demonstrates the paper's motivating trade-off: statically certified
// mixes run with no deadlock machinery at all.
//
// Usage:
//
//	dlsim -workload ordered|crosslock|ring -strategy none|detect|woundwait|waitdie|timeout \
//	      [-clients N] [-txns N] [-seed S] [-file system.txn]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"distlock/internal/core"
	"distlock/internal/model"
	"distlock/internal/parse"
	"distlock/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the
// command's test can drive it; it returns the process exit code: 0 when the
// run completes, 1 when it stalls or fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "ordered", "built-in workload: ordered, crosslock, ring")
	file := fs.String("file", "", "run the transactions from this file instead of a built-in workload")
	strategy := fs.String("strategy", "none", "none, detect, woundwait, waitdie, timeout, probe")
	clients := fs.Int("clients", 8, "concurrent clients")
	txns := fs.Int("txns", 50, "transactions per client")
	seed := fs.Int64("seed", 1, "simulation seed")
	latency := fs.Int64("latency", 5, "one-way network latency (ticks)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "dlsim:", err)
		return code
	}

	strat, ok := map[string]sim.Strategy{
		"none": sim.StrategyNone, "detect": sim.StrategyDetect,
		"woundwait": sim.StrategyWoundWait, "waitdie": sim.StrategyWaitDie,
		"timeout": sim.StrategyTimeout, "probe": sim.StrategyProbe,
	}[*strategy]
	if !ok {
		return fail(2, fmt.Errorf("unknown strategy %q", *strategy))
	}
	var templates []*model.Transaction
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return fail(1, err)
		}
		sys, err := parse.System(f)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
		if sys.N() == 0 {
			return fail(1, fmt.Errorf("%s declares no transactions", *file))
		}
		templates = sys.Txns
	} else if templates = builtin(*workload); templates == nil {
		return fail(2, fmt.Errorf("unknown workload %q (want ordered, crosslock, ring)", *workload))
	}

	// Static certification report first.
	sys := model.MustSystem(templates[0].DDB(), templates...)
	certified, _ := core.SystemSafeDF(sys)
	fmt.Fprintf(stdout, "workload: %d templates; statically safe+deadlock-free (Thm 4): %v\n",
		len(templates), certified)
	if !certified && strat == sim.StrategyNone {
		fmt.Fprintln(stdout, "warning: uncertified mix with no deadlock handling — expect a stall")
	}

	m, err := sim.Run(sim.Config{
		Templates: templates, Clients: *clients, TxnsPerClient: *txns,
		Strategy: strat, NetLatency: *latency, Seed: *seed,
	})
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "\nstrategy %-15s committed %5d  aborts %4d  wounds %4d  detectorKills %3d  timeouts %3d\n",
		strat, m.Committed, m.Aborts, m.Wounds, m.DetectorKills, m.TimeoutKills)
	fmt.Fprintf(stdout, "ticks %8d  makespan %8d  mean latency %8.1f  throughput %6.2f commits/kTick  stalled=%v\n",
		m.Ticks, m.Makespan, m.MeanLatency(), m.Throughput(), m.Stalled)
	if m.Stalled {
		return 1
	}
	return 0
}

// builtin returns a named workload over a small multi-site database, or nil
// for a name it does not know.
func builtin(name string) []*model.Transaction {
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
	switch name {
	case "ordered":
		return []*model.Transaction{
			chain("A", "Lx", "Ly", "Ux", "Uy"),
			chain("B", "Lx", "Lz", "Ux", "Uz"),
			chain("C", "Ly", "Lz", "Uy", "Uz"),
		}
	case "crosslock":
		return []*model.Transaction{
			chain("A", "Lx", "Ly", "Ux", "Uy"),
			chain("B", "Ly", "Lx", "Uy", "Ux"),
		}
	case "ring":
		return []*model.Transaction{
			chain("A", "Lx", "Ly", "Ux", "Uy"),
			chain("B", "Ly", "Lz", "Uy", "Uz"),
			chain("C", "Lz", "Lx", "Uz", "Ux"),
		}
	default:
		return nil
	}
}
