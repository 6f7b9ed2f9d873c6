// Package cluster is the partitioned lock space: a locktable.Table that
// hash-routes each entity to one of N netlock servers, lifting the
// sharded backend's striping idiom one level up — the stripes become
// whole dlserver processes. K independent servers jointly serve one
// lock space with no cross-server coordination on the certified tier:
// static certification is exactly the proof that per-entity ordering
// suffices, and every entity has exactly one owning server, so per-entity
// fencing and leases stay per-server and each server remains the sole
// authority for its partition.
//
// Cross-partition concerns live here. The async tier (certified-chain
// pipelining) orders an instance's operations behind its acquires on
// other partitions — per-server wire FIFO orders nothing between servers,
// and unfenced cross-partition pipelining reaches states the
// certification never admitted. Releases are never ordered against each
// other: a delayed release only lengthens a hold (see the
// partition-fencing comment at AcquireAsync). ReleaseAll fans out to the
// partitions that own the entities and aggregates failures with
// errors.Join. A lost partition degrades to ErrLeaseExpired on only its
// slice of the entity space — the server's lease machinery has already
// revoked that slice's grants — while every other partition keeps
// granting.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
)

// DefaultDialRetries is the connect-retry budget a cluster dial gets when
// Options.Dial doesn't choose one: a cluster client typically starts
// concurrently with its N servers, so surviving a racing startup (about
// 800ms of `connection refused` at the default backoff) is the default
// posture rather than an opt-in.
const DefaultDialRetries = 5

// Options tunes cluster construction.
type Options struct {
	// Dial tunes every partition connection. A zero DialRetries is
	// upgraded to DefaultDialRetries; set it negative to fail on the
	// first refused connect.
	Dial netlock.DialOptions
}

// Table routes a locktable.Table over N netlock servers. Build with New;
// it satisfies the same contract as the in-process backends, so the
// conformance suite and the engine drive it unchanged.
type Table struct {
	parts []*netlock.Client

	// m is the merged table bundle: every partition client counts its
	// grants and releases into it, so the cluster's counters read like one
	// table's. expiries counts lease expiries surfaced to callers PER
	// PARTITION — counted client-side, because a killed server cannot
	// count its own demise; a dead partition's slice of the entity space
	// shows up here while the survivors' counters stay at zero.
	// fenceJoins counts partition-switch fence joins (the cross-partition
	// ordering cost the async tier pays; see the fencing comment below).
	m          *obs.TableMetrics
	expiries   []obs.Counter
	fenceJoins obs.Counter

	mu     sync.Mutex
	closed bool

	// fmu guards fences and every slot inside an instFence. The blocking
	// joins themselves happen outside the lock; fmu only serializes slot
	// bookkeeping against the sweep.
	fmu    sync.Mutex
	fences map[int]*instFence
}

var (
	_ locktable.Table      = (*Table)(nil)
	_ locktable.AsyncTable = (*Table)(nil)
)

// New dials one client per address and returns the routing table. Every
// server must host the same database (each handshake verifies the
// fingerprint); the address list ORDER is part of the cluster identity —
// every client process must pass the same addresses in the same order to
// agree on entity ownership. Of cfg only Metrics is read, the merged
// client-side counter bundle every partition counts into. On any dial
// failure the already-connected partitions are closed and the error names
// the failed partition.
func New(ddb *model.DDB, cfg locktable.Config, addrs []string, opts Options) (*Table, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one server address")
	}
	dial := opts.Dial
	if dial.DialRetries == 0 {
		dial.DialRetries = DefaultDialRetries
	} else if dial.DialRetries < 0 {
		dial.DialRetries = 0
	}
	t := &Table{
		parts:    make([]*netlock.Client, len(addrs)),
		fences:   make(map[int]*instFence),
		m:        cfg.Metrics,
		expiries: make([]obs.Counter, len(addrs)),
	}
	if t.m == nil {
		t.m = obs.NewTableMetrics()
	}
	cfg.Metrics = t.m // every partition client counts into the merged bundle
	for i, addr := range addrs {
		cli, err := netlock.Dial(addr, ddb, cfg, dial)
		if err != nil {
			for _, c := range t.parts[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("cluster: partition %d/%d: %w", i, len(addrs), err)
		}
		t.parts[i] = cli
	}
	return t, nil
}

// Partitions reports the number of servers in the cluster.
func (t *Table) Partitions() int { return len(t.parts) }

// Metrics returns the merged table bundle every partition client counts
// into — the cluster's traffic read as one table's. Safe concurrent with
// traffic and after Close.
func (t *Table) Metrics() *obs.TableMetrics { return t.m }

// PartitionMetrics returns partition p's wire instrumentation (its
// connection's frames, flushes, batch width, heartbeats, expiries
// surfaced on that connection, pipeline depth).
func (t *Table) PartitionMetrics(p int) *obs.WireMetrics { return t.parts[p].Metrics() }

// PartitionExpiries reports how many lease expiries callers have been
// handed for entities owned by partition p. Nonzero exactly on the
// partitions that died or were partitioned away.
func (t *Table) PartitionExpiries(p int) int64 { return t.expiries[p].Load() }

// FenceJoins reports how many partition-switch fence joins the async
// tier has performed — the cross-partition ordering cost of pipelining.
func (t *Table) FenceJoins() int64 { return t.fenceJoins.Load() }

// Partition returns the index of the server that owns the entity: the
// same Fibonacci-multiplier mix the sharded backend stripes with, one
// level up. Deterministic in (entity, server count), so every client
// process sharing an address list agrees on ownership with no
// coordination.
func (t *Table) Partition(ent model.EntityID) int {
	h := uint64(ent) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(t.parts)))
}

func (t *Table) part(ent model.EntityID) *netlock.Client {
	return t.parts[t.Partition(ent)]
}

// mapErr translates one dead partition's shutdown error into lease
// language. ErrStopped from a partition client while the cluster itself
// is still open means that server (or its connection) died: the server's
// lease machinery has revoked the session's grants on that slice of the
// entity space, which is exactly what ErrLeaseExpired reports — and the
// cluster as a whole must not present a partial outage as a table
// shutdown, because every other partition keeps granting. After Close
// the translation stops and ErrStopped means what it says.
func (t *Table) mapErr(err error) error {
	if err == nil || !errors.Is(err, locktable.ErrStopped) {
		return err
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return locktable.ErrStopped
	}
	return netlock.ErrLeaseExpired
}

// mapErrAt is mapErr plus the per-partition expiry ledger: every lease
// expiry surfaced to a caller is charged to the partition that produced
// it. Counted here — on the client side — because a killed server cannot
// count its own expiries; the survivors' counters staying at zero is what
// certifies the outage stayed contained to one partition.
func (t *Table) mapErrAt(p int, err error) error {
	err = t.mapErr(err)
	if errors.Is(err, netlock.ErrLeaseExpired) {
		t.expiries[p].Inc()
	}
	return err
}

// Acquire implements locktable.Table: the request goes to the entity's
// owning partition, whose grant queue alone decides order.
func (t *Table) Acquire(ctx context.Context, inst locktable.Instance, ent model.EntityID, mode locktable.Mode) error {
	p := t.Partition(ent)
	inst.Span.SetPartition(p)
	return t.mapErrAt(p, t.parts[p].Acquire(ctx, inst, ent, mode))
}

// The async tier: partition fencing.
//
// Pipelining is sound on ONE server because that server's read loop is
// serial and per-instance chains admit requests to the hosted table in
// submission order — the wire's FIFO *is* the instance's program order,
// so the reachable lock-table states are exactly the synchronous run's
// and the certification carries over. Across partitions that argument
// collapses: two servers' read loops share no clock, so an instance's
// acquire on partition B can execute while its earlier acquire on
// partition A is still queued — two chains of the same certified mix can
// then each hold its second entity while parked on the other's first,
// a state no synchronous interleaving reaches, and the mix deadlocks
// with no handler armed (this was observed, not hypothesized).
//
// The cluster therefore keeps exactly the two orderings certification
// needs, both against the instance's acquires on OTHER partitions:
//
//   - (R1) An acquire for partition p first joins the instance's youngest
//     still-unacked acquire on every other partition. Within one
//     partition the server chain already executes acquires in submission
//     order, so acking the youngest proves all its predecessors resolved
//     — one completion per partition is all the fence must hold.
//   - (R2) A release for partition p joins the same acquires. Its own
//     entity's acquire lives on p and is not joined: while it is unacked
//     the partition's server runs the release right behind it.
//
// Nothing else is ordered, so releases carry no execution receipt. A
// release delayed past a later release of its instance moves back to its
// program position past only steps that do not conflict with it (the
// instance holds the entity throughout), so every executed schedule is
// conflict-equivalent to a legal schedule of the certified templates. A
// release never waits on a foreign holder, so it is on no waits-for
// cycle; its one wait, behind its own acquire, is the synchronous
// run's. An acquire never waits on other partitions'
// releases either: overtaking one only lengthens a hold.
//
// Uncontended chains still pipeline: the fence joins are memoized
// completions whose acks usually streamed back long before the next
// partition switch, so the steady-state join is a non-blocking channel
// read. What the fence costs is exactly the cross-partition reordering
// that was unsound.

// memoCompletion is the cluster's one object per async operation: it
// applies the partition-loss translation and the per-partition expiry
// ledger (mapErrAt) to partition p's completion, and lets two joiners
// share an acquire's. The session owns every completion the async API
// returns and joins each exactly once; the fence must ALSO join an
// acquire's at the next partition switch. Both run on the session
// goroutine, so Once is never contended — it just turns the second Wait
// into a replay of the first result, and the partition client's
// completion is still waited exactly once.
type memoCompletion struct {
	t     *Table
	p     int
	inner locktable.Completion
	once  sync.Once
	done  atomic.Bool
	err   error
}

func (m *memoCompletion) Wait(ctx context.Context) error {
	m.once.Do(func() {
		m.err = m.t.mapErrAt(m.p, m.inner.Wait(ctx))
		m.done.Store(true)
	})
	return m.err
}

// wrapRelease wraps partition p's release completion. One that resolved at
// submission without error (a release of nothing) needs no translation
// and passes through as is.
func (t *Table) wrapRelease(p int, inner locktable.Completion) locktable.Completion {
	if inner == locktable.Done {
		return inner
	}
	return &memoCompletion{t: t, p: p, inner: inner}
}

// instFence is one instance's in-flight frontier: per partition, the
// youngest unjoined acquire. Slots are only touched by the instance's own
// session goroutine (the session API is serial per instance) — fmu exists
// for the sweep, which inspects other instances' slots.
type instFence struct {
	busy bool // an acquire is between fenceBegin and fenceEnd; sweep must skip
	acq  []*memoCompletion
}

// fenceSweepAt bounds the fence map: instance IDs are allocated
// monotonically (one per Begin), so committed instances' entries — all
// slots acked, imposing no further ordering — are swept out once the map
// crosses this high-water mark.
const fenceSweepAt = 1024

func (st *instFence) settled() bool {
	if st.busy {
		return false
	}
	for _, c := range st.acq {
		if c != nil && !c.done.Load() {
			return false
		}
	}
	return true
}

// take clears and returns the acquires an operation on partition p must
// join first: the youngest unacked one on every other partition (wire
// FIFO and the server chain order the home partition). Called under fmu.
func (st *instFence) take(p int) []*memoCompletion {
	var join []*memoCompletion
	for q, c := range st.acq {
		if q != p && c != nil {
			join = append(join, c)
			st.acq[q] = nil
		}
	}
	return join
}

// fenceBegin collects the completions an acquire on partition p must join
// first (R1) and marks the instance busy so the sweep leaves it alone
// until fenceEnd records the acquire.
func (t *Table) fenceBegin(key locktable.InstKey, p int) (*instFence, []*memoCompletion) {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	st := t.fences[key.ID]
	if st == nil {
		if len(t.fences) >= fenceSweepAt {
			for id, old := range t.fences {
				if old.settled() {
					delete(t.fences, id)
				}
			}
		}
		st = &instFence{acq: make([]*memoCompletion, len(t.parts))}
		t.fences[key.ID] = st
	}
	st.busy = true
	return st, st.take(p)
}

// fenceEnd records the newly submitted acquire (nil if it was never
// submitted) and lifts the sweep guard.
func (t *Table) fenceEnd(st *instFence, p int, c *memoCompletion) {
	t.fmu.Lock()
	if c != nil {
		st.acq[p] = c
	}
	st.busy = false
	t.fmu.Unlock()
}

// AcquireAsync implements locktable.AsyncTable: the request is submitted
// to the entity's owning partition without waiting for the ack — after
// fencing against the instance's unacked acquires on every other
// partition (see the partition-fencing comment above). Within one
// partition the chain pipelines at full depth; a partition switch costs
// at most one join, already resolved in the uncontended steady state. A
// fence join that fails means an earlier acquire in program order
// failed: the chain is over, so the request is not submitted and the
// failure is returned for the session to observe (it re-observes the
// same error, memoized, when it joins the predecessor itself).
//
// A sampled acquire's span is tagged with the owning partition, then
// rides the partition client's submit. Fence joins happen before the
// submit, so a cross-partition switch's join latency shows up —
// correctly — in the sampled op's submit→enqueue gap.
func (t *Table) AcquireAsync(inst locktable.Instance, ent model.EntityID, mode locktable.Mode) locktable.Completion {
	p := t.Partition(ent)
	inst.Span.SetPartition(p)
	st, join := t.fenceBegin(inst.Key, p)
	t.fenceJoins.Add(int64(len(join)))
	for _, c := range join {
		if err := c.Wait(context.Background()); err != nil {
			t.fenceEnd(st, p, nil)
			return locktable.ResolvedCompletion(err)
		}
	}
	w := &memoCompletion{t: t, p: p, inner: t.parts[p].AcquireAsync(inst, ent, mode)}
	t.fenceEnd(st, p, w)
	return w
}

// ReleaseAsync implements locktable.AsyncTable: after the release fence
// (R2) the release goes to the owning partition's fire-and-forget
// ReleaseAsync — shipped even while the entity's own acquire is in
// flight — so a pipelined Commit joins acquire acks only, as on one
// server.
func (t *Table) ReleaseAsync(ent model.EntityID, key locktable.InstKey) locktable.Completion {
	p := t.releaseFence(ent, key)
	return t.wrapRelease(p, t.parts[p].ReleaseAsync(ent, key))
}

// ReleaseAsyncAcked is ReleaseAsync with an execution receipt (netlock's
// ReleaseAsyncAcked behind the same fence), for synchronous sessions:
// their Unlock returns at submission and Commit joins the receipt, so
// each Commit reports exactly its own releases' outcomes.
func (t *Table) ReleaseAsyncAcked(ent model.EntityID, key locktable.InstKey) locktable.Completion {
	p := t.releaseFence(ent, key)
	return t.wrapRelease(p, t.parts[p].ReleaseAsyncAcked(ent, key))
}

// releaseFence joins the instance's unacked acquires on every partition
// but the entity's own (R2) and returns that partition. It only looks the
// instance up: no entry means nothing to join. Join errors are the
// session's to surface at commit; a failed predecessor acquire left
// nothing held for this release to free.
func (t *Table) releaseFence(ent model.EntityID, key locktable.InstKey) int {
	p := t.Partition(ent)
	var join []*memoCompletion
	t.fmu.Lock()
	if st := t.fences[key.ID]; st != nil {
		join = st.take(p)
	}
	t.fmu.Unlock()
	t.fenceJoins.Add(int64(len(join)))
	for _, c := range join {
		c.Wait(context.Background())
	}
	return p
}

// Release implements locktable.Table.
func (t *Table) Release(ent model.EntityID, key locktable.InstKey) error {
	p := t.Partition(ent)
	return t.mapErrAt(p, t.parts[p].Release(ent, key))
}

// ReleaseAll implements locktable.Table: entities are grouped by owning
// partition and released with one fan-out call per server, concurrently.
// Per-partition failures are aggregated with errors.Join in partition
// order, so a caller sees every slice that could not confirm release —
// a dead partition contributes its lease-expiry error without blocking
// the live partitions' releases.
func (t *Table) ReleaseAll(ents []model.EntityID, key locktable.InstKey) error {
	// The abort path: the session resolved every in-flight async
	// operation before this wave, so the instance's fence frontier is
	// dead weight — drop it rather than wait for the sweep.
	t.fmu.Lock()
	delete(t.fences, key.ID)
	t.fmu.Unlock()
	if len(ents) == 0 {
		return nil
	}
	groups := make([][]model.EntityID, len(t.parts))
	for _, ent := range ents {
		p := t.Partition(ent)
		groups[p] = append(groups[p], ent)
	}
	errs := make([]error, len(t.parts))
	var wg sync.WaitGroup
	for p, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(p int, g []model.EntityID) {
			defer wg.Done()
			errs[p] = t.mapErrAt(p, t.parts[p].ReleaseAll(g, key))
		}(p, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close implements locktable.Table: every partition connection is closed
// concurrently (each server then releases the session's grants on its
// slice). The closed flag is set before the fan-out so that racing calls
// observe ErrStopped — a real shutdown — rather than a feigned lease
// expiry.
func (t *Table) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range t.parts {
		wg.Add(1)
		go func(c *netlock.Client) {
			defer wg.Done()
			c.Close()
		}(c)
	}
	wg.Wait()
}
