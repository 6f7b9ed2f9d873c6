// Package locktable is the engine's pluggable lock-grant layer: a Table
// maps entities to shared/exclusive locks with per-entity wait queues, and
// the runtime engine drives it through a narrow interface (Acquire /
// Release / Withdraw / Wound / Snapshot) so the grant machinery can be
// swapped without touching session semantics.
//
// Two implementations exist:
//
//   - NewSharded: the one in-process table, for every tier — the fast
//     path the paper's program pays for. Entities are hashed across a
//     fixed, GOMAXPROCS-resolved number of stripes, each a cache-line
//     padded sync.Mutex guarding its entities' lock states; shared
//     Acquire/Release ride a per-entity atomic fast path that never takes
//     the stripe mutex until a writer appears, an uncontended exclusive
//     Acquire is grant-and-return under one mutex — zero channel hops, no
//     goroutine handoff — and contended waiters park on per-request
//     channels. A mix that static certification (Theorems 3–5) proved
//     deadlock-free needs no wait-for bookkeeping at grant time, so
//     nothing in the hot path has to observe global state: stripes can
//     grant independently, and a crowd of readers on one scorching entity
//     does not serialize through anything but one cache line.
//   - netlock.Dial (internal/netlock): the cross-process backend — a
//     client speaking the netlock wire protocol to a server hosting an
//     in-process table for many engine processes, with leases and
//     fencing tokens covering the failure modes a network adds.
//     internal/cluster routes one lock space over several such servers.
//
// All backends implement identical blocking semantics, verified by a
// shared conformance suite: shared grants overlap and a writer excludes
// everyone (any number of shared holders, at most one exclusive holder),
// FIFO grant order per entity (a waiting writer blocks later-arriving
// readers; oldest-first under wound-wait), cancelled waits withdrawn
// before Acquire returns (a grant racing the withdrawal is released,
// never leaked), wounds surfaced as ErrWounded, and ErrStopped after
// Close.
//
// Observation: every backend counts its operations into an
// obs.TableMetrics bundle (Config.Metrics, always on). Config.Trace adds
// the exact per-entity grant log (GrantLog) that serializability checks
// read; it needs identified holders, so it disables the sharded CAS
// shared fast path.
package locktable

import (
	"context"

	"distlock/internal/model"
	"distlock/internal/obs"
)

// DefaultShards is the floor of the sharded backend's GOMAXPROCS-resolved
// default stripe count (see Config.Shards). More stripes admit more
// concurrent grant decisions; the per-stripe cost is one mutex and one
// map, so over-provisioning is cheap.
const DefaultShards = 32

// Mode is the access mode of an Acquire: Exclusive (write — excludes
// every other holder) or Shared (read — any number of shared holders may
// hold the entity concurrently). It aliases the model's lock-step mode so
// the runtime can pass a template node's mode straight through.
type Mode = model.Mode

const (
	// Exclusive is the write mode (the zero value: pre-mode call sites and
	// the paper's original model are the all-exclusive special case).
	Exclusive = model.Exclusive
	// Shared is the read mode.
	Shared = model.Shared
)

// InstKey identifies one attempt (epoch) of one transaction instance.
// Instances keep their ID across retry epochs so age priority survives a
// wound; the epoch distinguishes a retry's requests from its dead
// predecessor's.
type InstKey struct {
	ID    int
	Epoch int
}

// Instance is the requesting transaction instance of one Acquire: its
// identity, its age priority (smaller is older), and its doom signal.
type Instance struct {
	Key  InstKey
	Prio int64
	// Doomed is readable once the engine's deadlock handling has picked the
	// instance as a victim. A parked Acquire selects on it so a wound
	// interrupts the wait promptly (returning ErrWounded with the request
	// withdrawn), even if the wound decision happened on another entity's
	// grant path. Nil means the caller has no doom signal.
	Doomed <-chan struct{}
	// Span is the sampled op span of this acquire; nil means unsampled.
	// Wire backends thread it through the transport, stamping the
	// client-side stages and carrying the server-side ones back on the
	// reply: on success it is stamped up to StageWakeup (by Acquire, or by
	// the AcquireAsync completion's Wait), on failure it is left incomplete
	// and the caller drops it. In-process tables ignore it — their whole
	// acquire is one stage, which the session stamps itself, so the sharded
	// CAS shared fast path never sees a span.
	Span *obs.Span
}

// WaitEdge is one wait-for edge of a Snapshot: waiter blocks on the entity
// holder currently holds. A shared-held entity emits one edge per
// identified shared holder for each waiter, plus one edge against
// AnonReaderKey when anonymous fast-path readers hold it (a queued reader
// also waits on the current holders, never directly on the writer queued
// ahead of it — the writer's own edges to those holders close any cycle
// just as well).
type WaitEdge struct {
	Waiter, Holder         InstKey
	WaiterPrio, HolderPrio int64
}

// GrantEvent records that a transaction instance (at a given attempt epoch)
// was granted the lock on an entity in the given mode. Per-entity order in
// GrantLog is the grant order at the owning stripe or server (concurrent
// shared grants appear in the order the backend recorded them).
type GrantEvent struct {
	Entity model.EntityID
	Inst   int
	Epoch  int
	Mode   Mode
}

// Config parameterizes a backend. The zero value is a usable FIFO table
// with default tuning.
type Config struct {
	// WoundWait enables the wound-wait priority discipline: an older
	// requester arriving at a CONFLICTING younger holder triggers OnWound
	// (once per conflicting younger holder — an exclusive requester wounds
	// every younger shared holder, a shared requester only a younger
	// exclusive holder), and a released entity is handed to its oldest
	// waiter instead of FIFO (preserving the invariant that a holder is
	// older than its conflicting waiters).
	WoundWait bool
	// OnWound is called with the holder's instance ID when WoundWait is on
	// and an older requester queues behind a conflicting younger holder.
	// The callback runs inside the backend's grant-path serialization
	// domain (the sharded backend's stripe critical section) so the victim
	// provably still holds the entity, and it must therefore not call back
	// into the table; it should only signal the victim (whose parked
	// Acquires then return ErrWounded via their Doomed channels, or via
	// Wound).
	OnWound func(holderID int)
	// Trace records per-entity lock-grant order, readable via GrantLog
	// after Close.
	Trace bool
	// Shards is the sharded backend's stripe count, fixed for the table's
	// lifetime. Zero resolves from GOMAXPROCS (4x, power-of-two, clamped to
	// [DefaultShards, 512]); a positive count pins exactly that many
	// stripes. 1 degenerates to a single global mutex, and counts beyond
	// the entity count leave some stripes empty — both are legal, and the
	// conformance and soak suites run both.
	Shards int
	// DisableSharedFastPath forces every shared Acquire/Release of the
	// sharded backend through the stripe mutexes. The fast path counts
	// shared holders anonymously (a padded per-entity atomic) instead of
	// recording their identity, which is invisible to in-process sessions
	// — they only release what they hold — but wrong for embedders that
	// attribute holders themselves: the netlock server composes
	// per-connection identities into snapshot edges, so it sets this.
	// WoundWait and Trace disable the fast path implicitly.
	DisableSharedFastPath bool
	// Metrics receives the backend's operation counters (grants by path,
	// releases, wounds, queue-depth samples). Counting is
	// always on — a nil Metrics is normalized to a private bundle — and
	// allocation-free; supplying a shared bundle lets an embedder (the
	// engine, the cluster router) aggregate several backends into one
	// view. Remote backends count CLIENT-side: the bundle covers exactly
	// the traffic this table object generated, and the server keeps its
	// own authoritative bundle across all its clients.
	Metrics *obs.TableMetrics
}

// Table is a shared/exclusive lock table over the entities of one
// database: each entity is held by at most one exclusive holder or any
// number of shared holders, waiters queue per entity. All methods are
// safe for concurrent use.
type Table interface {
	// Acquire blocks until the entity is granted to the instance in the
	// requested mode: an exclusive grant requires no other holder of any
	// mode, a shared grant requires no exclusive holder AND no earlier
	// waiter (FIFO fairness: a reader arriving behind a queued writer
	// parks behind it rather than starving it; under wound-wait the
	// queue drains oldest-first instead). It returns nil on grant;
	// ctx.Err() if the context is cancelled while waiting (the request is
	// withdrawn — or, if a grant raced the cancellation, released —
	// before returning, so the instance holds nothing on a non-nil
	// return); ErrWounded if the instance's Doomed channel fires or Wound
	// removes the request; and ErrStopped once the table is closed. A
	// duplicate Acquire by a current holder returns nil immediately
	// regardless of mode (mode upgrades are not supported; sessions issue
	// at most one Lock per entity). With the sharded backend's anonymous
	// shared fast path enabled, a duplicate SHARED Acquire is
	// indistinguishable from a new reader and must not be issued — the
	// session layer guarantees it never is.
	Acquire(ctx context.Context, inst Instance, ent model.EntityID, mode Mode) error
	// Release frees the entity if the instance holds it, granting it to the
	// next waiter (FIFO, or oldest-first under wound-wait). Releasing an
	// entity the instance does not hold is a no-op — except that with the
	// sharded backend's anonymous shared fast path, a release while fast
	// readers hold the entity is credited to one of them (callers must
	// only release what they hold; the session layer guarantees it).
	// Returns ErrStopped on a closed table, whose locks died with it.
	Release(ent model.EntityID, key InstKey) error
	// ReleaseAll releases every listed entity the instance holds — the
	// abort path. Every failed release surfaces in the returned error
	// (errors.Join), not just the last one.
	ReleaseAll(ents []model.EntityID, key InstKey) error
	// Withdraw removes the instance's pending request on the entity, if
	// any. It reports whether the request had already been granted, in
	// which case the grant is released instead — either way the instance
	// holds nothing on return. Withdraw is the request owner's cleanup
	// path: it must not race the instance's own parked Acquire on the
	// same entity (removal does not wake the waiter — Acquire withdraws
	// its own request when its context or doom arm fires). To interrupt
	// another goroutine's parked Acquire, use Wound.
	Withdraw(ent model.EntityID, key InstKey) bool
	// Wound removes every pending (not yet granted) request of the exact
	// instance attempt — ID and Epoch both match — waking the parked
	// Acquires with ErrWounded. Granted locks are untouched: the victim
	// releases them itself (via Release) when it aborts. Epoch exactness
	// matters because wound delivery can race the victim's retry: a stale
	// wound aimed at a dead epoch must not remove the retry's healthy
	// requests. Victims blocked in Acquire are also woken through their
	// Doomed channels, so Wound is a prompt-delivery complement, not the
	// only wake-up path.
	Wound(key InstKey)
	// Snapshot returns the current wait-for edges (one per queued waiter,
	// against the entity's holder). Edges from different stripes or servers
	// are collected sequentially, not atomically: a point-in-time view
	// for probes and debugging, not a consistent cut. Waiters blocked on
	// anonymous fast-path readers are attributed to AnonReaderKey, which
	// never waits and so never closes a cycle; callers that must name
	// shared holders set Config.DisableSharedFastPath.
	Snapshot() []WaitEdge
	// GrantLog returns the recorded grant events (Config.Trace only).
	// Per-entity subsequences are in grant order. Only safe to call after
	// Close.
	GrantLog() []GrantEvent
	// Close stops the table and wakes every parked Acquire with
	// ErrStopped. Held locks die with the table. Close is idempotent.
	Close()
}
