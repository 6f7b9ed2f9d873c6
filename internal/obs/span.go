package obs

// Sampled end-to-end op tracing.
//
// A Span is a carrier for one sampled op's stage timestamps: the session
// stamps submit, the netlock client stamps enqueue/flush, the server sends
// its stages back as deltas on the reply frame, and the session commits the
// finished span into a SpanRing — a lossy ring of seq-stamped slots, so
// readers never block writers and torn reads are discarded at decode.
//
// Two deliberate deviations from the rest of this package:
//
//   - Spans call time.Now. Only sampled ops (1-in-N) pay for it, and each
//     stamp is a single monotonic-clock read plus one atomic store.
//   - Span carriers come from a sync.Pool, so steady-state tracing does not
//     allocate. A span is recycled only on the Commit path, where every
//     other referent has provably let go (see the ordering notes on Commit);
//     failed ops simply drop their span and let the GC take it.
//
// Server stages cross the wire as durations relative to server receipt —
// never wall clocks — so cross-host skew cannot corrupt a waterfall. The
// client re-anchors them between its flush and wakeup stamps at commit time
// and clamps the result monotone.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one timing point in an op's life. Offsets are nanoseconds
// from span start; -1 marks a stage the op never passed through.
type Stage uint8

const (
	StageSubmit       Stage = iota // session submits the op
	StageEnqueue                   // client appends the frame to its send queue
	StageFlush                     // client write loop hands the batch to the kernel
	StageServerRecv                // server read loop picks the frame up
	StageChainStart                // server chain (or inline try path) starts on it
	StageGrant                     // lock table grants
	StageReplyEnqueue              // reply frame queued for the reply writer
	StageReplyFlush                // reply writer hands the batch to the kernel
	StageWakeup                    // client completion wakes the session
)

// NumStages is the number of Stage values; Stages arrays are indexed by Stage.
const NumStages = int(StageWakeup) + 1

var stageNames = [NumStages]string{
	"submit", "enqueue", "flush", "server_recv", "chain_start",
	"grant", "reply_enqueue", "reply_flush", "wakeup",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Span kinds.
const (
	SpanAcquire uint8 = 1
	SpanRelease uint8 = 2
)

// Span is a pooled carrier for one sampled op's stage stamps. All methods
// are nil-safe so unsampled call sites pay one predicted branch, not a call.
//
// Stage words are atomics because different goroutines stamp different
// stages (session, write loop, read loop); each word is written by exactly
// one of them per op.
type Span struct {
	ring  *SpanRing
	kind  uint8
	part  uint8
	ent   int32
	start time.Time
	st    [NumStages]atomic.Int64

	// Server deltas decoded off the reply trailer, nanoseconds since server
	// receipt. Plain fields: written by the goroutine that decodes the
	// reply, which happens-before the commit via the completion hand-off.
	srvChain, srvGrant, srvEnq int64
	srvSet                     bool
}

// Stamp records the current monotonic offset for one stage.
func (sp *Span) Stamp(s Stage) {
	if sp == nil {
		return
	}
	sp.st[s].Store(int64(time.Since(sp.start)))
}

// Offset returns a stage's recorded offset in ns, or -1 if absent.
func (sp *Span) Offset(s Stage) int64 {
	if sp == nil {
		return -1
	}
	return sp.st[s].Load()
}

// SetPartition tags the span with the cluster partition serving the op.
func (sp *Span) SetPartition(p int) {
	if sp == nil {
		return
	}
	sp.part = uint8(p)
}

// ServerDeltas attaches the reply trailer: chain-start, grant and
// reply-enqueue offsets in ns relative to server receipt. Commit re-anchors
// them into the client's timeline.
func (sp *Span) ServerDeltas(chain, grant, enq int64) {
	if sp == nil {
		return
	}
	sp.srvChain, sp.srvGrant, sp.srvEnq = chain, grant, enq
	sp.srvSet = true
}

// Commit finalizes the span, publishes it to the owning ring and recycles
// the carrier. Callers must guarantee no other goroutine will touch the
// span afterwards; the stamping protocol gives this for free on success
// paths, because every foreign stamp (flush, server deltas) happens-before
// the reply that unblocks the committer. Failed ops must NOT Commit — they
// drop the span instead, since e.g. a shutdown may still hold a reference
// in a pending-flush list.
func (sp *Span) Commit() SpanRecord {
	if sp == nil || sp.ring == nil {
		return SpanRecord{}
	}
	var rec SpanRecord
	rec.Kind, rec.Part, rec.Entity = sp.kind, sp.part, sp.ent
	for i := 0; i < NumStages; i++ {
		rec.Stages[i] = sp.st[i].Load()
	}
	if sp.srvSet {
		// Anchor the server deltas inside the client's flush→wakeup window.
		// The unattributed remainder (wire + kernel both ways) is split
		// evenly across the two crossings; with deltas instead of wall
		// clocks this is the best skew-free placement available.
		f, w := rec.Stages[StageFlush], rec.Stages[StageWakeup]
		if f >= 0 && w >= f {
			net := w - f - sp.srvEnq
			if net < 0 {
				net = 0
			}
			a := f + net/2
			rec.Stages[StageServerRecv] = a
			rec.Stages[StageChainStart] = a + sp.srvChain
			rec.Stages[StageGrant] = a + sp.srvGrant
			rec.Stages[StageReplyEnqueue] = a + sp.srvEnq
		}
	}
	rec.clamp()
	rec.Seq = sp.ring.commit(&rec)
	r := sp.ring
	sp.ring = nil
	r.pool.Put(sp)
	return rec
}

// SpanRecord is a decoded span: per-stage offsets in ns from span start,
// -1 for stages the op never passed through.
type SpanRecord struct {
	Seq    uint64           `json:"seq"`
	Kind   uint8            `json:"kind"`
	Part   uint8            `json:"part"`
	Entity int32            `json:"entity"`
	Stages [NumStages]int64 `json:"stages_ns"`
}

// clamp makes present offsets monotone non-decreasing in stage order and
// never past the final present stage, absorbing anchor rounding.
func (r *SpanRecord) clamp() {
	end := int64(-1)
	for i := NumStages - 1; i >= 0; i-- {
		if r.Stages[i] >= 0 {
			end = r.Stages[i]
			break
		}
	}
	prev := int64(0)
	for i := 0; i < NumStages; i++ {
		v := r.Stages[i]
		if v < 0 {
			continue
		}
		if v < prev {
			v = prev
		}
		if end >= 0 && v > end {
			v = end
		}
		r.Stages[i] = v
		prev = v
	}
}

// Total is the offset of the last present stage — the op's end-to-end
// latency for client spans (wakeup) or in-server time for server spans.
func (r *SpanRecord) Total() int64 {
	for i := NumStages - 1; i >= 0; i-- {
		if r.Stages[i] >= 0 {
			return r.Stages[i]
		}
	}
	return 0
}

// Gap returns the time attributed to a stage: its offset minus the previous
// present stage's offset (span start for the first). -1 if the stage is
// absent.
func (r *SpanRecord) Gap(s Stage) int64 {
	v := r.Stages[s]
	if v < 0 {
		return -1
	}
	prev := int64(0)
	for i := int(s) - 1; i >= 0; i-- {
		if r.Stages[i] >= 0 {
			prev = r.Stages[i]
			break
		}
	}
	return v - prev
}

// Complete reports whether every stage in [from, to] is present.
func (r *SpanRecord) Complete(from, to Stage) bool {
	for i := from; i <= to; i++ {
		if r.Stages[i] < 0 {
			return false
		}
	}
	return true
}

type spanSlot struct {
	seq  atomic.Uint64
	meta atomic.Uint64
	st   [NumStages]atomic.Int64
}

// SpanRing is a lossy ring of committed spans. Its slot protocol: writers
// stamp a slot with seq 0, store the payload, then publish the seq;
// readers re-check the seq after copying and discard torn slots.
type SpanRing struct {
	mask  uint64
	cur   atomic.Uint64
	pool  sync.Pool
	slots []spanSlot
}

// NewSpanRing makes a ring holding the last size spans (rounded up to a
// power of two, min 8).
func NewSpanRing(size int) *SpanRing {
	n := 8
	for n < size {
		n <<= 1
	}
	r := &SpanRing{mask: uint64(n - 1), slots: make([]spanSlot, n)}
	r.pool.New = func() any { return new(Span) }
	return r
}

// Start hands out a reset span carrier stamped with the current time as its
// base. Nil-safe: a nil ring yields a nil span, and every Span method on a
// nil span is a no-op, so call sites sample with a single branch.
func (r *SpanRing) Start(kind uint8, ent int32) *Span {
	if r == nil {
		return nil
	}
	sp := r.pool.Get().(*Span)
	sp.ring = r
	sp.kind, sp.part, sp.ent = kind, 0, ent
	sp.srvChain, sp.srvGrant, sp.srvEnq, sp.srvSet = 0, 0, 0, false
	for i := 0; i < NumStages; i++ {
		sp.st[i].Store(-1)
	}
	sp.start = time.Now()
	return sp
}

func (r *SpanRing) commit(rec *SpanRecord) uint64 {
	seq := r.cur.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.seq.Store(0)
	s.meta.Store(uint64(rec.Kind)<<40 | uint64(rec.Part)<<32 | uint64(uint32(rec.Entity)))
	for i := 0; i < NumStages; i++ {
		s.st[i].Store(rec.Stages[i])
	}
	s.seq.Store(seq)
	return seq
}

// Recorded returns the total number of spans ever committed.
func (r *SpanRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.cur.Load()
}

// Cap returns the ring capacity.
func (r *SpanRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Spans decodes the ring's current contents, oldest first. Torn slots are
// discarded; the result is a consistent-if-incomplete sample.
func (r *SpanRing) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		var rec SpanRecord
		meta := s.meta.Load()
		for j := 0; j < NumStages; j++ {
			rec.Stages[j] = s.st[j].Load()
		}
		if s.seq.Load() != seq {
			continue // torn: writer lapped us mid-copy
		}
		rec.Seq = seq
		rec.Kind = uint8(meta >> 40)
		rec.Part = uint8(meta >> 32)
		rec.Entity = int32(uint32(meta))
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Slowest returns up to n decoded spans ordered by descending Total.
func (r *SpanRing) Slowest(n int) []SpanRecord {
	recs := r.Spans()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Total() > recs[j].Total() })
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// TopSpansByTotal sorts a merged record set by descending Total and keeps n.
func TopSpansByTotal(recs []SpanRecord, n int) []SpanRecord {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Total() > recs[j].Total() })
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// StageLatency is one row of a waterfall summary: the distribution of time
// attributed to a single stage (or "total" for whole-op latency).
type StageLatency struct {
	Stage string `json:"stage"`
	HistogramSnapshot
}

// StageHistograms aggregates per-stage gap distributions plus whole-op
// totals across committed spans. Nil-safe like the rest of the package.
type StageHistograms struct {
	total Histogram
	gaps  [NumStages]Histogram
}

// Record folds one decoded span into the per-stage distributions.
func (h *StageHistograms) Record(rec SpanRecord) {
	if h == nil {
		return
	}
	h.total.Record(rec.Total())
	for i := 0; i < NumStages; i++ {
		if g := rec.Gap(Stage(i)); g >= 0 {
			h.gaps[i].Record(g)
		}
	}
}

// Snapshot returns the total row followed by every stage with at least one
// sample, in stage order.
func (h *StageHistograms) Snapshot() []StageLatency {
	if h == nil {
		return nil
	}
	out := make([]StageLatency, 0, NumStages+1)
	if t := h.total.Snapshot(); t.Count > 0 {
		out = append(out, StageLatency{Stage: "total", HistogramSnapshot: t})
	}
	for i := 0; i < NumStages; i++ {
		if s := h.gaps[i].Snapshot(); s.Count > 0 {
			out = append(out, StageLatency{Stage: Stage(i).String(), HistogramSnapshot: s})
		}
	}
	return out
}
