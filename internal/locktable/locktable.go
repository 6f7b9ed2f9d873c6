// Package locktable is the engine's pluggable lock-grant layer: a Table
// maps entities to shared/exclusive locks with per-entity wait queues, and
// the runtime engine drives it through one interface (Acquire /
// TryAcquire / Release / ReleaseAll) so the grant machinery can be
// swapped without touching session semantics.
//
// Every backend implements the whole interface:
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
// Each backend's ReleaseAll is ReleaseEach: one loop over its per-entity
// releases, so a release has one path on every backend.
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
// obs.TableMetrics bundle (Config.Metrics, always on). Tests that need
// the exact per-entity grant order wrap a table in locktabletest.Tap,
// which records it from outside and leaves the sharded CAS shared fast
// path on.
package locktable

import (
	"context"
	"errors"

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

// Config parameterizes a backend. The zero value is a usable FIFO table
// with default tuning.
type Config struct {
	// Shards is the sharded backend's stripe count, fixed for the table's
	// lifetime. Zero resolves from GOMAXPROCS (4x, power-of-two, clamped to
	// [DefaultShards, 512]); a positive count pins exactly that many
	// stripes. 1 degenerates to a single global mutex, and counts beyond
	// the entity count leave some stripes empty — both are legal, and the
	// conformance and soak suites run both.
	Shards int
	// Metrics receives the backend's operation counters (grants by path,
	// releases, queue-depth samples). Counting is
	// always on — a nil Metrics is normalized to a private bundle — and
	// allocation-free; supplying a bundle lets the caller that built the
	// table read it (the facade's TierStats) or aggregate several backends
	// into one view (the cluster router). Remote backends count
	// CLIENT-side: the bundle covers exactly the traffic this table object
	// generated, and the server keeps its own authoritative bundle across
	// all its clients.
	Metrics *obs.TableMetrics
}

// Table is a shared/exclusive lock table over the entities of one
// database: each entity is held by at most one exclusive holder or any
// number of shared holders, waiters queue per entity. All methods are
// safe for concurrent use.
type Table interface {
	TryAcquirer
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
	// Acquire by the exclusive holder returns nil immediately regardless
	// of mode (mode upgrades are not supported). A shared holder must not
	// repeat its Acquire: the sharded backend's fast path counts shared
	// holds anonymously, so a shared repeat would add a second reader and
	// an exclusive one would wait on the holder itself. No caller repeats:
	// the session layer locks each entity once, and the netlock server
	// answers a repeat from its grant book.
	Acquire(ctx context.Context, inst Instance, ent model.EntityID, mode Mode) error
	// Release frees the entity if the instance holds it, granting it to the
	// next waiter in FIFO order. Releasing an
	// entity the instance does not hold is a no-op — except that with the
	// sharded backend's anonymous shared fast path, a release while fast
	// readers hold the entity is credited to one of them. Callers release
	// only what they hold: the session layer, and the netlock server's
	// grant book, guarantee it.
	// Returns ErrStopped on a closed table, whose locks died with it.
	Release(ent model.EntityID, key InstKey) error
	// ReleaseAll releases every listed entity the instance holds — the
	// abort path. Every failed release surfaces in the returned error
	// (errors.Join), not just the last one. Every backend implements it
	// as ReleaseEach. On a wire backend the releases run in the
	// instance's wire order, behind its in-flight acquires, so a caller
	// resolves those acquires first (Session.Abort does).
	ReleaseAll(ents []model.EntityID, key InstKey) error
	// Close stops the table and wakes every parked Acquire with
	// ErrStopped. Held locks die with the table. Close is idempotent.
	Close()
}

// TryAcquirer is the non-blocking acquire every Table has (Table embeds
// it; the name stays for callers that assert to it): TryAcquire grants
// the lock if and only if it can be granted immediately — the instance
// already holds it, or the entity has no conflicting holder and either no
// queue or a shared request from a holding instance (Instance.Holding) —
// and reports false otherwise without queueing anything. A false return
// leaves the table exactly as it was; the caller falls back to the
// blocking Acquire.
//
// On the wire it is a try acquire, answered by the server's TryAcquire;
// the cluster router sends it to the owning partition. The runtime's
// two-phase sessions (the fallback tier) try their whole entity set and,
// on the first miss, release what they got before they block. The
// netlock server uses it as its read-loop fast path: an acquire for an
// instance with no pending chain is tried inline, and only a contended
// try pays for a per-instance chain goroutine and its parked request.
type TryAcquirer interface {
	// TryAcquire reports whether the lock was granted. The error is
	// non-nil only for table-level failures (ErrStopped), never for
	// contention.
	TryAcquire(inst Instance, ent model.EntityID, mode Mode) (bool, error)
}

// ReleaseEach releases every listed entity through t's per-entity
// releases, and is every backend's ReleaseAll. On an AsyncTable each
// release ships through ReleaseAsyncAcked before any is joined, so the
// wave's frames share flushes and its round trips overlap, and each
// receipt reports exactly its own release; on any other table it loops
// over Release. Every failure surfaces, joined with errors.Join.
func ReleaseEach(t Table, ents []model.EntityID, key InstKey) error {
	var errs []error
	if at, ok := t.(AsyncTable); ok {
		comps := make([]Completion, len(ents))
		for i, ent := range ents {
			comps[i] = at.ReleaseAsyncAcked(ent, key)
		}
		for _, c := range comps {
			if err := c.Wait(context.Background()); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	for _, ent := range ents {
		if err := t.Release(ent, key); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
