// Package sim is a deterministic discrete-event simulator of a distributed
// database executing locked transactions: per-site lock managers, message
// latency between transaction coordinators and sites, and pluggable
// deadlock-handling strategies.
//
// It exists to reproduce the paper's motivating comparison (Section 1):
// ensuring deadlock freedom *in advance* — running a statically certified
// safe-and-deadlock-free transaction mix with no runtime deadlock machinery
// — versus the dynamic schemes used in practice (wait-for-graph detection,
// wound-wait, wait-die, timeouts).
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"distlock/internal/graph"
	"distlock/internal/model"
)

// Strategy selects the deadlock-handling scheme.
type Strategy int

const (
	// StrategyNone performs no deadlock handling: correct (and fastest)
	// only when the transaction mix is certified deadlock-free; otherwise
	// the simulation may stall, which is reported in the metrics.
	StrategyNone Strategy = iota
	// StrategyDetect runs a periodic global wait-for-graph cycle detector
	// and aborts the youngest transaction on each cycle found.
	StrategyDetect
	// StrategyWoundWait is Rosenkrantz-Stearns-Lewis wound-wait: an older
	// requester wounds (aborts) a younger holder; a younger requester waits.
	StrategyWoundWait
	// StrategyWaitDie is wait-die: an older requester waits; a younger
	// requester dies (aborts and restarts with its original timestamp).
	StrategyWaitDie
	// StrategyTimeout aborts any lock request that waits longer than
	// Config.Timeout ticks.
	StrategyTimeout
	// StrategyProbe is Chandy–Misra–Haas edge-chasing: decentralized
	// probe messages travel along wait-for edges (paying latency per hop);
	// an initiator whose probe returns aborts itself. See probe.go.
	StrategyProbe
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "certified-none"
	case StrategyDetect:
		return "detection"
	case StrategyWoundWait:
		return "wound-wait"
	case StrategyWaitDie:
		return "wait-die"
	case StrategyTimeout:
		return "timeout"
	case StrategyProbe:
		return "cmh-probe"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Templates are the transaction programs; client c runs template
	// Templates[c % len(Templates)].
	Templates []*model.Transaction
	// Clients is the number of concurrent clients.
	Clients int
	// TxnsPerClient is how many transaction instances each client commits.
	TxnsPerClient int
	Strategy      Strategy
	// NetLatency is the one-way coordinator<->site message delay in ticks.
	NetLatency int64
	// OpTime is the lock-manager service time per operation in ticks.
	OpTime int64
	// DetectInterval is the detector period (StrategyDetect).
	DetectInterval int64
	// Timeout is the wait budget (StrategyTimeout).
	Timeout int64
	// ProbeAfter is how long a request stays blocked before initiating a
	// CMH probe (StrategyProbe).
	ProbeAfter int64
	// RestartBackoff is the delay before an aborted instance retries,
	// multiplied by a small random factor for contention breaking.
	RestartBackoff int64
	Seed           int64
	// MaxTicks stops a runaway simulation (0 = default 50M).
	MaxTicks int64
}

func (c *Config) defaults() {
	if c.NetLatency <= 0 {
		c.NetLatency = 5
	}
	if c.OpTime <= 0 {
		c.OpTime = 1
	}
	if c.DetectInterval <= 0 {
		c.DetectInterval = 100
	}
	if c.Timeout <= 0 {
		c.Timeout = 500
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 100
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 20
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 50_000_000
	}
}

// Metrics summarize a run.
type Metrics struct {
	Committed     int
	Aborts        int   // instance aborts (restarts) from any cause
	Wounds        int   // aborts caused by wound-wait specifically
	DetectorRuns  int   // times the detector executed
	DetectorKills int   // aborts caused by detected cycles
	TimeoutKills  int   // aborts caused by timeouts
	ProbeKills    int   // aborts caused by returning CMH probes
	Makespan      int64 // tick of the last commit
	TotalLatency  int64 // sum over commits of (commit tick - first start tick)
	Stalled       bool  // true if the run deadlocked with no recovery path
	Ticks         int64 // final simulation clock
}

// MeanLatency returns the average commit latency in ticks.
func (m *Metrics) MeanLatency() float64 {
	if m.Committed == 0 {
		return 0
	}
	return float64(m.TotalLatency) / float64(m.Committed)
}

// Throughput returns commits per 1000 ticks.
func (m *Metrics) Throughput() float64 {
	if m.Ticks == 0 {
		return 0
	}
	return 1000 * float64(m.Committed) / float64(m.Ticks)
}

type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// instance is one running transaction.
type instance struct {
	id         int
	client     int
	tmpl       *model.Transaction
	ts         int64 // priority timestamp (first start; survives restarts)
	started    int64 // first start tick
	executed   *graph.Bitset
	pending    map[model.NodeID]bool
	held       map[model.EntityID]bool
	waiting    map[model.EntityID]bool // entities with a queued lock request
	epoch      int                     // incremented on abort; stale messages are dropped
	left       int                     // client transactions remaining, including this one
	probesSeen map[probeKey]bool       // CMH duplicate suppression (per epoch)
	done       bool
}

type waiter struct {
	inst  *instance
	node  model.NodeID
	epoch int
	since int64
}

// lockState is the per-entity lock-manager state: at most one exclusive
// holder, or any number of shared holders, plus the wait queue.
type lockState struct {
	xholder  *instance
	sholders map[*instance]bool
	queue    []*waiter
}

// holds reports whether the instance holds the entity in either mode.
func (ls *lockState) holds(in *instance) bool {
	return ls.xholder == in || ls.sholders[in]
}

// compatible reports whether a grant in mode m is compatible with the
// current holders (queue fairness is the caller's business): a shared
// grant needs no exclusive holder, an exclusive grant needs no holder at
// all.
func (ls *lockState) compatible(m model.Mode) bool {
	if ls.xholder != nil {
		return false
	}
	return m == model.Shared || len(ls.sholders) == 0
}

// grant records the instance as a holder in mode m.
func (ls *lockState) grant(in *instance, m model.Mode, e model.EntityID) {
	if m == model.Shared {
		if ls.sholders == nil {
			ls.sholders = map[*instance]bool{}
		}
		ls.sholders[in] = true
	} else {
		ls.xholder = in
	}
	in.held[e] = true
}

// drop removes the instance from the holder set, reporting whether it
// held.
func (ls *lockState) drop(in *instance) bool {
	if ls.xholder == in {
		ls.xholder = nil
		return true
	}
	if ls.sholders[in] {
		delete(ls.sholders, in)
		return true
	}
	return false
}

// conflictingHolders returns the holders a request in mode m conflicts
// with: the exclusive holder always, the shared holders only for an
// exclusive request. Sorted by instance id — the simulator is
// deterministic, so nothing may leak map iteration order into the event
// sequence.
func (ls *lockState) conflictingHolders(m model.Mode) []*instance {
	var out []*instance
	if ls.xholder != nil {
		out = append(out, ls.xholder)
	}
	if m == model.Exclusive {
		for h := range ls.sholders {
			out = append(out, h)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	}
	return out
}

// holders returns every current holder (for wait-for edges).
func (ls *lockState) holders() []*instance {
	return ls.conflictingHolders(model.Exclusive)
}

// Sim is the simulator state. Construct with New, drive with Run.
type Sim struct {
	cfg     Config
	rng     *rand.Rand
	now     int64
	seq     int64
	queue   eventQueue
	locks   map[model.EntityID]*lockState
	metrics Metrics
	live    map[int]*instance
	nextID  int
	remain  int // instances not yet committed
}

// New builds a simulator for the config.
func New(cfg Config) (*Sim, error) {
	cfg.defaults()
	if len(cfg.Templates) == 0 {
		return nil, fmt.Errorf("sim: no transaction templates")
	}
	if cfg.Clients < 1 || cfg.TxnsPerClient < 1 {
		return nil, fmt.Errorf("sim: need at least one client and one transaction")
	}
	ddb := cfg.Templates[0].DDB()
	for _, t := range cfg.Templates {
		if t.DDB() != ddb {
			return nil, fmt.Errorf("sim: templates span different databases")
		}
	}
	return &Sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		locks: map[model.EntityID]*lockState{},
		live:  map[int]*instance{},
	}, nil
}

func (s *Sim) schedule(delay int64, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run executes the simulation to completion and returns the metrics.
func Run(cfg Config) (*Metrics, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

func (s *Sim) run() (*Metrics, error) {
	s.remain = s.cfg.Clients * s.cfg.TxnsPerClient
	for c := 0; c < s.cfg.Clients; c++ {
		client := c
		// Stagger client start slightly for determinism without lockstep.
		s.schedule(int64(c%7), func() { s.startClientTxn(client, s.cfg.TxnsPerClient) })
	}
	if s.cfg.Strategy == StrategyDetect {
		s.schedule(s.cfg.DetectInterval, s.detect)
	}
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		if s.now > s.cfg.MaxTicks {
			return nil, fmt.Errorf("sim: exceeded %d ticks (livelock?)", s.cfg.MaxTicks)
		}
		ev.fn()
		if s.remain == 0 {
			break
		}
	}
	if s.remain > 0 {
		s.metrics.Stalled = true
	}
	s.metrics.Ticks = s.now
	return &s.metrics, nil
}

// startClientTxn begins the next transaction instance for a client.
func (s *Sim) startClientTxn(client, left int) {
	if left == 0 {
		return
	}
	tmpl := s.cfg.Templates[client%len(s.cfg.Templates)]
	s.nextID++
	inst := &instance{
		id:       s.nextID,
		client:   client,
		tmpl:     tmpl,
		ts:       s.now<<16 | int64(s.nextID&0xffff), // unique, time-ordered
		started:  s.now,
		executed: graph.NewBitset(tmpl.N()),
		pending:  map[model.NodeID]bool{},
		held:     map[model.EntityID]bool{},
		waiting:  map[model.EntityID]bool{},
		left:     left,
	}
	s.live[inst.id] = inst
	s.issue(inst)
}

// issue sends every currently eligible operation of the instance to its
// site (all minimal unexecuted nodes — distributed transactions proceed in
// parallel across sites).
func (s *Sim) issue(inst *instance) {
	if inst.done {
		return
	}
	for _, id := range inst.tmpl.MinimalNodes(inst.executed) {
		if inst.pending[id] {
			continue
		}
		inst.pending[id] = true
		node := id
		epoch := inst.epoch
		s.schedule(s.cfg.NetLatency+s.cfg.OpTime, func() { s.arrive(inst, node, epoch) })
	}
}

// arrive processes an operation at its entity's site lock manager.
func (s *Sim) arrive(inst *instance, node model.NodeID, epoch int) {
	if inst.done || epoch != inst.epoch {
		return // stale message from before an abort
	}
	nd := inst.tmpl.Node(node)
	ls := s.lock(nd.Entity)
	switch nd.Kind {
	case model.UnlockOp:
		if ls.drop(inst) {
			delete(inst.held, nd.Entity)
			s.grantNext(nd.Entity)
		}
		s.complete(inst, node)
	case model.LockOp:
		if len(ls.queue) == 0 && ls.compatible(nd.Mode) {
			// Grant inline. The queue must be empty — a reader arriving
			// behind a waiting writer parks behind it (FIFO fairness, the
			// same writer-blocks-later-readers rule as the runtime lock
			// tables), it does not slip past on compatibility.
			ls.grant(inst, nd.Mode, nd.Entity)
			s.complete(inst, node)
			return
		}
		if ls.holds(inst) {
			s.complete(inst, node) // cannot happen for well-formed txns
			return
		}
		s.conflict(inst, node, epoch, ls, nd.Entity)
	}
}

func (s *Sim) lock(e model.EntityID) *lockState {
	ls := s.locks[e]
	if ls == nil {
		ls = &lockState{}
		s.locks[e] = ls
	}
	return ls
}

// conflict applies the strategy to a blocked lock request.
func (s *Sim) conflict(inst *instance, node model.NodeID, epoch int, ls *lockState, e model.EntityID) {
	enqueue := func() {
		ls.queue = append(ls.queue, &waiter{inst: inst, node: node, epoch: epoch, since: s.now})
		inst.waiting[e] = true
		if s.cfg.Strategy == StrategyProbe {
			s.scheduleProbeInit(inst, epoch)
		}
		if s.cfg.Strategy == StrategyTimeout {
			s.schedule(s.cfg.Timeout, func() {
				if !inst.done && epoch == inst.epoch && inst.waiting[e] {
					s.metrics.TimeoutKills++
					s.abort(inst)
				}
			})
		}
	}
	mode := inst.tmpl.Node(node).Mode
	switch s.cfg.Strategy {
	case StrategyWoundWait:
		// The older requester wounds every CONFLICTING younger holder — an
		// exclusive requester wounds younger shared holders too, a shared
		// requester only a younger exclusive holder (readers never wound
		// readers; they do not conflict). Enqueue first so the freed
		// entity can be granted straight to this request.
		var victims []*instance
		for _, h := range ls.conflictingHolders(mode) {
			if inst.ts < h.ts {
				victims = append(victims, h)
			}
		}
		enqueue()
		for _, v := range victims {
			s.metrics.Wounds++
			s.abort(v)
		}
	case StrategyWaitDie:
		// The requester waits only if older than every conflicting holder;
		// younger than any of them, it dies. (With no conflicting holder —
		// a reader parked behind a queued writer for fairness — it simply
		// waits: there is no one to die against.)
		dies := false
		for _, h := range ls.conflictingHolders(mode) {
			if inst.ts >= h.ts {
				dies = true
				break
			}
		}
		if dies {
			s.abort(inst) // younger dies
		} else {
			enqueue()
		}
	default:
		enqueue()
	}
}

// complete records an executed operation, issues successors, and commits
// when the instance finishes.
func (s *Sim) complete(inst *instance, node model.NodeID) {
	delete(inst.pending, node)
	inst.executed.Set(int(node))
	if inst.executed.Count() == inst.tmpl.N() {
		inst.done = true
		delete(s.live, inst.id)
		s.metrics.Committed++
		s.metrics.TotalLatency += s.now - inst.started
		s.metrics.Makespan = s.now
		s.remain--
		client, left := inst.client, inst.left
		s.schedule(s.cfg.NetLatency, func() { s.startClientTxn(client, left-1) })
		return
	}
	s.issue(inst)
}

// grantNext drains the wait queue on e as far as compatibility allows:
// repeatedly pick the next live waiter and grant it if its mode is
// compatible with the current holders — so consecutive readers are
// granted as one wave, and a writer is granted exactly when the last
// incompatible holder left. The pick order is strategy-dependent and
// load-bearing for liveness:
//
//   - wound-wait requires the holder to be older than every conflicting
//     waiter (a younger requester waits only behind an older holder), so
//     the lock goes to the OLDEST waiter — otherwise an old transaction
//     could wait behind a freshly granted young holder that nobody
//     wounds, recreating deadlock;
//   - wait-die requires the holder to be younger than every waiter, so the
//     lock goes to the YOUNGEST waiter;
//   - the remaining strategies grant in FIFO order.
func (s *Sim) grantNext(e model.EntityID) {
	ls := s.locks[e]
	for {
		// Drop dead or stale waiters.
		live := ls.queue[:0]
		for _, w := range ls.queue {
			if !w.inst.done && w.epoch == w.inst.epoch {
				live = append(live, w)
			}
		}
		ls.queue = live
		if len(ls.queue) == 0 {
			return
		}
		pick := 0
		switch s.cfg.Strategy {
		case StrategyWoundWait:
			for i, w := range ls.queue {
				if w.inst.ts < ls.queue[pick].inst.ts {
					pick = i
				}
			}
		case StrategyWaitDie:
			for i, w := range ls.queue {
				if w.inst.ts > ls.queue[pick].inst.ts {
					pick = i
				}
			}
		}
		w := ls.queue[pick]
		mode := w.inst.tmpl.Node(w.node).Mode
		if !ls.compatible(mode) {
			return
		}
		ls.queue = append(ls.queue[:pick], ls.queue[pick+1:]...)
		ls.grant(w.inst, mode, e)
		delete(w.inst.waiting, e)
		inst, node := w.inst, w.node
		s.schedule(s.cfg.OpTime, func() { s.complete(inst, node) })
	}
}

// abort releases everything the instance holds and schedules a restart
// with the same timestamp (so wound-wait/wait-die make progress).
func (s *Sim) abort(inst *instance) {
	if inst.done {
		return
	}
	s.metrics.Aborts++
	inst.epoch++ // invalidate in-flight messages and queued waiters
	for e := range inst.held {
		ls := s.locks[e]
		if ls.drop(inst) {
			s.grantNext(e)
		}
		delete(inst.held, e)
	}
	for e := range inst.waiting {
		delete(inst.waiting, e)
	}
	inst.executed.Reset()
	inst.pending = map[model.NodeID]bool{}
	inst.probesSeen = nil
	backoff := s.cfg.RestartBackoff + int64(s.rng.Intn(int(s.cfg.RestartBackoff)+1))
	s.schedule(backoff, func() { s.issue(inst) })
}

// detect builds the global wait-for graph and aborts the youngest
// transaction on each cycle found, then reschedules itself.
func (s *Sim) detect() {
	s.metrics.DetectorRuns++
	// Build wait-for: waiting instance -> holder instance.
	ids := make(map[int]int) // instance id -> dense index
	var insts []*instance
	idx := func(in *instance) int {
		if i, ok := ids[in.id]; ok {
			return i
		}
		ids[in.id] = len(insts)
		insts = append(insts, in)
		return len(insts) - 1
	}
	g := graph.NewDigraph(2 * len(s.live))
	for _, ls := range s.locks {
		holders := ls.holders()
		if len(holders) == 0 {
			continue
		}
		for _, w := range ls.queue {
			if w.inst.done || w.epoch != w.inst.epoch {
				continue
			}
			// One edge per holder: a queued reader also waits on the shared
			// holders (never directly on a writer queued ahead of it — the
			// writer's own edges to those holders close any cycle just as
			// well).
			for _, h := range holders {
				if h.done {
					continue
				}
				g.AddArc(idx(w.inst), idx(h))
			}
		}
	}
	for {
		cyc := g.FindCycle()
		if cyc == nil {
			break
		}
		// Abort the youngest (largest timestamp) on the cycle.
		victim := insts[cyc[0]]
		for _, v := range cyc[1:] {
			if insts[v].ts > victim.ts {
				victim = insts[v]
			}
		}
		s.metrics.DetectorKills++
		s.abort(victim)
		// Rebuild is overkill; drop the victim's arcs by rebuilding graph.
		ng := graph.NewDigraph(g.N())
		vi := ids[victim.id]
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Out(u) {
				if u != vi && v != vi {
					ng.AddArc(u, v)
				}
			}
		}
		g = ng
	}
	if s.remain > 0 {
		s.schedule(s.cfg.DetectInterval, s.detect)
	}
}
