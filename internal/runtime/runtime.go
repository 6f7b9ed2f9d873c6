// Package runtime executes locked transactions on a true-concurrency
// distributed-database engine: a pluggable lock table (internal/locktable
// — hash-striped mutexes with a zero-hop fast path in process, or a wire
// client to a lock server) driven through long-lived sessions. It is the
// true-concurrency counterpart of the deterministic simulator in
// internal/sim, which keeps the detection, wound-wait and wait-die
// policies this package does not run.
//
// The engine exists to demonstrate the paper's program: a transaction mix
// certified safe-and-deadlock-free by the static tests (Theorems 3–5) runs
// correctly with NO deadlock handling at all. An uncertified class needs
// none either: its sessions run two-phase (see Engine.BeginAt), taking
// their whole entity set at the first Lock without ever waiting while
// they hold a lock, so no engine ever picks a victim.
//
// Transactions are driven externally (NewEngine, Engine.Begin,
// Session.Lock / Unlock / Commit / Abort), with context cancellation
// propagated into lock waits — the core of the public
// distlock.LockService.
package runtime
