// Banking: a multi-branch funds-transfer workload. Accounts live at three
// branch sites; transfer transactions lock the two accounts they move
// money between. We certify the whole mix safe-and-deadlock-free with
// Theorem 4, run it on the discrete-event distributed-database simulator
// with NO deadlock handling, and compare against an undisciplined variant
// of the same workload that needs wound-wait to survive.
//
// Run with: go run ./examples/banking
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"distlock"
	"distlock/internal/model"
	"distlock/internal/sim"
)

// transfer builds a transaction moving funds from one account to another:
// it locks both accounts (in the given order), then releases them. The
// lock order is the whole story: disciplined transfers lock the
// alphabetically smaller account first.
func transfer(db *distlock.DDB, name, from, to string) *distlock.Transaction {
	b := distlock.NewBuilder(db, name)
	l1 := b.Lock(from)
	l2 := b.Lock(to)
	u1 := b.Unlock(from)
	u2 := b.Unlock(to)
	b.Chain(l1, l2, u1, u2)
	return b.MustFreeze()
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example with its output stream injected, so the
// example's test can drive it.
func run(w io.Writer) error {
	db := distlock.NewDDB()
	// Three branches, two accounts each.
	for _, acc := range []struct{ name, branch string }{
		{"acct:alice", "branch-east"}, {"acct:bob", "branch-east"},
		{"acct:carol", "branch-west"}, {"acct:dave", "branch-west"},
		{"acct:erin", "branch-north"}, {"acct:frank", "branch-north"},
	} {
		db.MustEntity(acc.name, acc.branch)
	}

	// Disciplined mix: every transfer locks the lexicographically smaller
	// account first.
	disciplined := []*distlock.Transaction{
		transfer(db, "alice->carol", "acct:alice", "acct:carol"),
		transfer(db, "bob->erin", "acct:bob", "acct:erin"),
		transfer(db, "carol->frank", "acct:carol", "acct:frank"),
		transfer(db, "dave->erin", "acct:dave", "acct:erin"),
	}

	// Undisciplined mix: same transfers, but two of them lock in the
	// opposite order — a deadlock cycle waiting to happen.
	undisciplined := []*distlock.Transaction{
		transfer(db, "alice->carol'", "acct:alice", "acct:carol"),
		transfer(db, "carol->alice'", "acct:carol", "acct:alice"),
		transfer(db, "bob->erin'", "acct:bob", "acct:erin"),
		transfer(db, "erin->bob'", "acct:erin", "acct:bob"),
	}

	for _, mix := range []struct {
		name      string
		templates []*distlock.Transaction
	}{
		{"disciplined", disciplined},
		{"undisciplined", undisciplined},
	} {
		sys, err := distlock.NewSystem(db, mix.templates...)
		if err != nil {
			return err
		}
		certified, viol := distlock.SystemSafeDF(sys)
		fmt.Fprintf(w, "mix %-14s certified safe+deadlock-free (Theorem 4): %v\n", mix.name, certified)
		if !certified {
			fmt.Fprintf(w, "  violation: %s\n", viol)
		}

		// Run on the simulated cluster. The certified mix runs with no
		// deadlock machinery; the uncertified one gets wound-wait.
		strategy := sim.StrategyNone
		if !certified {
			strategy = sim.StrategyWoundWait
		}
		m, err := sim.Run(sim.Config{
			Templates: toModel(mix.templates), Clients: 8, TxnsPerClient: 50,
			Strategy: strategy, Seed: 99,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  ran under %-14s committed=%d aborts=%d makespan=%d ticks stalled=%v\n\n",
			strategy, m.Committed, m.Aborts, m.Makespan, m.Stalled)
	}

	// The punchline: run the UNdisciplined mix with no handling.
	m, err := sim.Run(sim.Config{
		Templates: toModel(undisciplined), Clients: 8, TxnsPerClient: 50,
		Strategy: sim.StrategyNone, Seed: 99,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "undisciplined mix with NO deadlock handling: committed=%d of %d, stalled=%v\n",
		m.Committed, 8*50, m.Stalled)
	fmt.Fprintln(w, "(this is why the static certification matters: prevention costs nothing at runtime)")
	return nil
}

func toModel(ts []*distlock.Transaction) []*model.Transaction { return ts }
