package locktable

import (
	"context"

	"distlock/internal/model"
)

// Completion is the join handle of an asynchronous table operation: the
// operation is already in flight (its request submitted, its frame queued
// on the wire) and Wait collects the outcome. A Completion must be waited
// exactly once, by one goroutine: an implementation may recycle it once
// Wait returned (netlock's request records are the next request's
// completions), so the caller lets go of it there.
type Completion interface {
	// Wait blocks until the operation resolves and returns what the
	// synchronous call would have. For an acquire, cancelling ctx abandons
	// the wait exactly as it would abort a blocking Acquire: the request is
	// withdrawn — or, if a grant raced the cancellation, released — before
	// Wait returns, so the instance holds nothing on a non-nil return.
	Wait(ctx context.Context) error
}

// AsyncTable is the optional pipelining capability a Table may implement:
// submit-now/join-later forms of Acquire and Release, so a caller that has
// *proved* its lock chain cannot deadlock (the paper's static
// certification, Theorems 3–5) can keep several requests in flight instead
// of paying one wire round trip per operation.
//
// The submission order of one instance's AcquireAsync calls is binding:
// an implementation must make the requests take effect in that order (the
// remote backend chains them server-side), so the reachable lock-table
// states are exactly those of the synchronous run — which is what keeps a
// certified mix deadlock-free when its acks are still in flight. Callers
// that were NOT certified never pipeline: they run two-phase through the
// synchronous Acquire and TryAcquire, on a pipelined engine too.
//
// Releases are different: an in-flight release can only lengthen a hold,
// never grant early or close a waits-for cycle, so the runtime ships every
// release on an AsyncTable without waiting, certified or not — synchronous
// sessions through ReleaseAsyncAcked, pipelined ones through ReleaseAsync —
// and joins the completions at commit. A release is ordered behind the
// instance's earlier acquires, never behind its other releases: it may be
// submitted while the instance's own AcquireAsync of the entity is still
// in flight, and the implementation must apply it after that acquire
// resolved (netlock resolves such a release server-side, in the
// instance's wire order, to whatever grant the acquire recorded), so the
// pipelined caller joins its acquires at commit rather than before each
// release.
//
// In-process tables do not implement this — their Acquire is already
// sub-microsecond, and a completion object would cost more than the call.
type AsyncTable interface {
	Table
	// AcquireAsync submits the acquire and returns its completion. A
	// sampled Span is stamped through StageWakeup by a successful Wait.
	AcquireAsync(inst Instance, ent model.EntityID, mode Mode) Completion
	// ReleaseAsync submits the release and returns its completion, whose
	// error (ErrStaleFence, a dead server) surfaces when the caller joins,
	// typically at commit. It may be fire-and-forget: netlock's reports
	// only a failure the server pushed back before the join.
	ReleaseAsync(ent model.EntityID, key InstKey) Completion
	// ReleaseAsyncAcked is ReleaseAsync with an execution receipt: its
	// completion resolves only once the release was executed, and reports
	// exactly that release's outcome. A synchronous session, whose Commit
	// must see its own releases' errors, ships its releases through it.
	ReleaseAsyncAcked(ent model.EntityID, key InstKey) Completion
}

// ResolvedCompletion is a Completion that already has its answer: the
// operation short-circuited (a release of nothing, a submission that
// failed before reaching the wire). A nil error yields Done.
func ResolvedCompletion(err error) Completion {
	if err == nil {
		return Done
	}
	return resolved{err}
}

// Done is the Completion of an operation that resolved at submission
// without error. It is one shared value: returning it costs no
// allocation.
var Done Completion = resolved{}

type resolved struct{ err error }

func (r resolved) Wait(context.Context) error { return r.err }
