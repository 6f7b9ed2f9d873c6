// Package locktable is the engine's pluggable lock-grant layer: a Table
// maps entities to shared/exclusive locks with per-entity wait queues, and
// the runtime engine drives it through a narrow interface (Acquire /
// Release / ReleaseAll) so the grant machinery can be swapped without
// touching session semantics.
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
//     stale-release fencing covering the failure modes a network adds.
//     internal/cluster routes one lock space over several such servers.
//
// All backends implement identical blocking semantics, verified by a
// shared conformance suite: shared grants overlap and a writer excludes
// everyone (any number of shared holders, at most one exclusive holder),
// FIFO grant order per entity (a waiting writer blocks later-arriving
// readers that hold nothing; a reader whose instance holds another lock
// passes it, see Instance.Holding), cancelled waits withdrawn before
// Acquire returns (a grant racing the withdrawal is released, never
// leaked), and ErrStopped after Close. No table picks victims: a certified mix needs no deadlock
// handling, and the fallback tier never waits while it holds a lock.
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

// InstKey identifies one transaction instance. An instance ID is never
// reused, so the key names one session's requests.
type InstKey struct {
	ID int
}

// Instance is the requesting transaction instance of one Acquire.
type Instance struct {
	Key InstKey
	// Prio is ignored by every table: no backend orders or wounds by age.
	// The field stays only because the benchmark sets it by name; the next
	// change to the benchmark drops that write.
	Prio int64
	// Holding says the instance holds some lock already. A shared request
	// with Holding set is granted whenever it is compatible with the
	// entity's holders, even past a queued writer; one without it keeps
	// FIFO order. That is the wait relation the certifier proved
	// deadlock-free (a request waits on conflicting holders only): a
	// reader that holds nothing has no incoming waits-for edge, so its
	// queue wait is on no cycle, while a holding reader parked behind a
	// writer would add a wait the model lacks (DESIGN.md "Queue order").
	Holding bool
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

// GrantEvent records that a transaction instance was granted the lock on
// an entity in the given mode. Per-entity order in GrantLog is the grant
// order at the owning stripe or server (concurrent shared grants appear in
// the order the backend recorded them).
type GrantEvent struct {
	Entity model.EntityID
	Inst   int
	Mode   Mode
}

// Config parameterizes a backend. The zero value is a usable FIFO table
// with default tuning.
type Config struct {
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
	// recording their identity, so a duplicate shared Acquire by a holder
	// adds a second reader where the mutex path returns the holder's
	// grant. In-process sessions never issue one (they lock each entity
	// once), but the netlock server serves outside input: it records one
	// grant per (connection, instance, entity) and frees one lock per
	// release, so a duplicate counted twice would strand a reader that
	// no release can free. The server therefore sets this. Trace disables
	// the fast path implicitly.
	DisableSharedFastPath bool
	// Metrics receives the backend's operation counters (grants by path,
	// releases, queue-depth samples). Counting is
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
	// parks behind it rather than starving it) unless inst.Holding is
	// set: then a shared request compatible with the holders passes the
	// queue, on arrival and whenever a grant wave stops at a blocked head.
	// It returns nil on grant;
	// ctx.Err() if the context is cancelled while waiting (the request is
	// withdrawn — or, if a grant raced the cancellation, released —
	// before returning, so the instance holds nothing on a non-nil
	// return); and ErrStopped once the table is closed. A duplicate
	// Acquire by a current holder returns nil immediately regardless of
	// mode (mode upgrades are not supported; sessions issue at most one
	// Lock per entity). With the sharded backend's anonymous
	// shared fast path enabled, a duplicate SHARED Acquire is
	// indistinguishable from a new reader and must not be issued — the
	// session layer guarantees it never is.
	Acquire(ctx context.Context, inst Instance, ent model.EntityID, mode Mode) error
	// Release frees the entity if the instance holds it, granting it to the
	// next waiter in FIFO order. Releasing an
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
	// GrantLog returns the recorded grant events (Config.Trace only).
	// Per-entity subsequences are in grant order. Only safe to call after
	// Close.
	GrantLog() []GrantEvent
	// Close stops the table and wakes every parked Acquire with
	// ErrStopped. Held locks die with the table. Close is idempotent.
	Close()
}
