// Package runtime executes locked transactions on a true-concurrency
// distributed-database engine: a pluggable lock table (internal/locktable
// — hash-striped mutexes with a zero-hop fast path in process, or a wire
// client to a lock server) driven through long-lived sessions. It is the
// true-concurrency counterpart of the deterministic simulator in
// internal/sim, which keeps the detection and wait-die policies this
// package does not run.
//
// The engine exists to demonstrate the paper's program: a transaction mix
// certified safe-and-deadlock-free by the static tests (Theorems 3–5) runs
// correctly with NO deadlock handling at all, while an uncertified mix
// needs a priority scheme (wound-wait) to make progress.
//
// Transactions are driven externally (NewEngine, Engine.Begin / Retry,
// Session.Lock / Unlock / Commit / Abort), with context cancellation
// propagated into lock waits — the core of the public
// distlock.LockService.
package runtime

import "fmt"

// Strategy selects the engine's deadlock handling.
type Strategy int

const (
	// StrategyNone: no handling; safe only for certified mixes. An
	// uncertified mix may deadlock: its sessions' Locks then block until
	// their contexts expire.
	StrategyNone Strategy = iota
	// StrategyWoundWait: sites wound (abort) a younger lock holder when an
	// older transaction requests the entity.
	StrategyWoundWait
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "certified-none"
	case StrategyWoundWait:
		return "wound-wait"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}
