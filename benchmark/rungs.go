package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distlock"
	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/netlock"
	dlrt "distlock/internal/runtime"
)

// latencyStride is the fixed stride latency is timed on: transaction
// seq%stride == 0 is timed Begin→Commit, seq%stride == stride/2 has each
// of its Lock calls timed instead. An in-process Lock is ~0.3 µs, so two
// clock reads around every call would be a third of what they measure, and
// timing the locks inside a timed transaction would inflate the
// transaction.
const latencyStride = 8

type timing uint8

const (
	timeNone timing = iota
	timeTxn
	timeLocks
)

func timingOf(seq int) timing {
	switch seq % latencyStride {
	case 0:
		return timeTxn
	case latencyStride / 2:
		return timeLocks
	}
	return timeNone
}

// clientRec is what one client goroutine recorded in one slice.
type clientRec struct {
	txns   int64 // committed transactions
	calls  int64 // calls made into the rung (attempted operations)
	failed int64 // calls that returned an error

	txnNs  []int64 // stride-timed transactions
	lockNs []int64 // stride-timed acquires (submit→completion on pipelined table rungs)

	// Table rung only: acquires by mode, and releases.
	sharedNs, exclNs, releaseNs []int64

	// Traced facade window only: every call, and the spans.
	beginNs, commitNs []int64
	spans             *spanBuf

	// Scratch for the pipelined table rungs.
	comps []pending
	rels  []locktable.Completion
}

type pending struct {
	ent    distlock.EntityID
	comp   locktable.Completion
	submit int64
}

// rung is one level of the stack bound to one class set: the same op
// stream replayed through it prices everything from that level down.
type rung interface {
	// txn runs client c's seq-th transaction, an instance of class cls.
	txn(c, seq, cls int, tm timing, r *clientRec) error
	// close drains the rung, runs its conservation checks and releases
	// its resources.
	close() error
}

var bg = context.Background()

// slice is the pooled outcome of driving one rung over one class set.
type slice struct {
	elapsed time.Duration
	clients int
	recs    []*clientRec
}

// drive runs the closed loop: `clients` goroutines each issue their next
// transaction as soon as the previous one returned, for dur. It returns
// once every client has finished its last transaction.
func drive(set *classSet, clients int, dur time.Duration, rg rung, traced bool) *slice {
	recs := make([]*clientRec, clients)
	for c := range recs {
		recs[c] = &clientRec{}
		if traced {
			recs[c].spans = newSpanBuf(spansPerClient)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := recs[c]
			for seq := 0; !stop.Load(); seq++ {
				cls := classOf(c, seq, clients, len(set.txns))
				if err := rg.txn(c, seq, cls, timingOf(seq), r); err != nil {
					r.failed++
					noteFailure(err)
					continue
				}
				r.txns++
			}
		}(c)
	}
	wg.Wait()
	return &slice{elapsed: time.Since(start), clients: clients, recs: recs}
}

// spansPerClient bounds the spans one client keeps from one traced slice.
const spansPerClient = 1 << 11

var failureLog struct {
	sync.Mutex
	n int
}

// noteFailure prints the first few operation failures; all are counted.
func noteFailure(err error) {
	failureLog.Lock()
	defer failureLog.Unlock()
	if failureLog.n++; failureLog.n <= 5 {
		logf("operation failed: %v", err)
	}
}

// ---------------------------------------------------------------- facade

// facadeMode selects how a facade rung is opened.
type facadeMode struct {
	local    bool // ignore the workload's servers: in-process table
	traced   bool // benchmark-side spans, owner words, wrapped server tables
	sampling int  // WithTraceSampling(n) when > 0
}

// facadeRung drives the public LockService, the way its users do.
type facadeRung struct {
	w     workload
	set   *classSet
	names []string
	mode  facadeMode
	svc   *distlock.LockService
	srvs  []*netlock.Server

	probes []*tableProbe // traced remote: one per server
	// owner is the benchmark-side holder word per entity, maintained
	// around synchronous Lock/Unlock in traced windows.
	owner      []atomic.Int32
	violations atomic.Int64

	// Filled by close.
	stats distlock.ServiceStats
	wire  wireTotals
}

// wireTotals sums wire counters: a facade rung's servers contribute their
// expiries and rejections, a wire rung both directions of its traffic.
type wireTotals struct {
	frames, bytes, flushes, expiries, fenceRejections int64
	batchP50, depthP50                                int64
}

// openFacade brings the workload's servers up, opens the service and
// registers the class set. The returned duration is the set-up a user
// pays before the first Begin is possible.
func openFacade(w workload, set *classSet, mode facadeMode) (*facadeRung, time.Duration, error) {
	f := &facadeRung{w: w, set: set, mode: mode}
	for _, t := range set.txns {
		f.names = append(f.names, t.Name())
	}
	if mode.traced {
		f.owner = make([]atomic.Int32, set.ddb.NumEntities())
	}
	start := time.Now()
	opts := []distlock.ServiceOption{distlock.WithCycleBudget(w.budget)}
	if w.mult > 0 {
		opts = append(opts, distlock.WithMultiplicity(w.mult))
	}
	if !mode.local && w.servers > 0 {
		var addrs []string
		for i := 0; i < w.servers; i++ {
			var so netlock.ServerOptions
			if mode.traced {
				p := newTableProbe(set.ddb, spansPerServer)
				f.probes = append(f.probes, p)
				so.New = func(d *distlock.DDB, cfg locktable.Config) locktable.Table {
					return newTracedTable(locktable.NewSharded(d, cfg), p)
				}
			}
			srv, err := netlock.NewServer(set.ddb, locktable.Config{}, so)
			if err != nil {
				f.shutdown()
				return nil, 0, err
			}
			f.srvs = append(f.srvs, srv)
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				f.shutdown()
				return nil, 0, err
			}
			addrs = append(addrs, srv.Addr())
		}
		if w.servers == 1 {
			opts = append(opts, distlock.WithRemoteTable(addrs[0]))
		} else {
			opts = append(opts, distlock.WithRemoteCluster(addrs...))
		}
		if w.depth > 0 {
			opts = append(opts, distlock.WithPipelineDepth(w.depth))
		}
	}
	if mode.sampling > 0 {
		opts = append(opts, distlock.WithTraceSampling(mode.sampling))
	}
	svc, err := distlock.Open(set.ddb, opts...)
	if err != nil {
		f.shutdown()
		return nil, 0, err
	}
	f.svc = svc
	rs, err := svc.RegisterBatch(bg, set.txns)
	if err != nil {
		f.shutdown()
		return nil, 0, err
	}
	setup := time.Since(start)
	for _, r := range rs {
		if !r.Admitted {
			f.shutdown()
			return nil, 0, fmt.Errorf("%s: class %s not admitted to the certified tier: %s", w.name, r.Class, r.Reason)
		}
	}
	return f, setup, nil
}

// spansPerServer bounds the table spans one traced server keeps.
const spansPerServer = 1 << 13

func (f *facadeRung) shutdown() {
	if f.svc != nil {
		f.svc.Close()
	}
	for _, s := range f.srvs {
		s.Close()
	}
}

// pipelined reports whether Lock returns at submission on this rung.
func (f *facadeRung) pipelined() bool { return !f.mode.local && f.w.servers > 0 && f.w.depth > 0 }

func (f *facadeRung) txn(c, seq, cls int, tm timing, r *clientRec) error {
	if f.mode.traced {
		return f.txnTraced(c, seq, cls, r)
	}
	prog := f.set.progs[cls]
	r.calls += int64(len(prog)) + 2
	var t0 int64
	if tm == timeTxn {
		t0 = now()
	}
	sess, err := f.svc.Begin(bg, f.names[cls])
	if err != nil {
		return err
	}
	for i := range prog {
		st := &prog[i]
		switch {
		case !st.lock:
			err = sess.Unlock(st.name)
		case tm == timeLocks:
			l0 := now()
			err = sess.Lock(bg, st.name, st.mode)
			r.lockNs = append(r.lockNs, now()-l0)
		default:
			err = sess.Lock(bg, st.name, st.mode)
		}
		if err != nil {
			sess.Abort()
			return err
		}
	}
	if err := sess.Commit(); err != nil {
		sess.Abort()
		return err
	}
	if tm == timeTxn {
		r.txnNs = append(r.txnNs, now()-t0)
	}
	return nil
}

// txnTraced is txn with a span around every call and, on synchronous
// rungs, the benchmark-side mutual-exclusion check.
func (f *facadeRung) txnTraced(c, seq, cls int, r *clientRec) error {
	prog := f.set.progs[cls]
	r.calls += int64(len(prog)) + 2
	id := (uint64(c)<<32 | uint64(uint32(seq))) + 1
	checkOwner := !f.pipelined()
	t0 := now()
	sess, err := f.svc.Begin(bg, f.names[cls])
	t1 := now()
	if err != nil {
		return err
	}
	r.beginNs = append(r.beginNs, t1-t0)
	r.spans.add(span{name: "distlock.begin", start: t0, end: t1, trace: id})
	for i := range prog {
		st := &prog[i]
		if st.lock {
			a := now()
			err = sess.Lock(bg, st.name, st.mode)
			b := now()
			r.lockNs = append(r.lockNs, b-a)
			r.spans.add(span{name: "distlock.lock", start: a, end: b, trace: id})
			if err == nil && checkOwner {
				f.noteHeld(st)
			}
		} else {
			if checkOwner {
				f.noteFreed(st)
			}
			a := now()
			err = sess.Unlock(st.name)
			b := now()
			r.spans.add(span{name: "distlock.unlock", start: a, end: b, trace: id})
		}
		if err != nil {
			sess.Abort()
			return err
		}
	}
	a := now()
	err = sess.Commit()
	b := now()
	if err != nil {
		sess.Abort()
		return err
	}
	r.commitNs = append(r.commitNs, b-a)
	r.spans.add(span{name: "distlock.commit", start: a, end: b, trace: id})
	r.txnNs = append(r.txnNs, b-t0)
	r.spans.add(span{name: "txn", start: t0, end: b, trace: id, root: true})
	return nil
}

// noteHeld updates the entity's owner word after a granted synchronous
// Lock: -1 one writer, n > 0 n readers. A conflicting word is a
// mutual-exclusion violation.
func (f *facadeRung) noteHeld(st *step) {
	w := &f.owner[st.ent]
	if st.mode == distlock.Exclusive {
		if !w.CompareAndSwap(0, -1) {
			f.violations.Add(1)
		}
	} else if w.Add(1) <= 0 {
		f.violations.Add(1)
	}
}

// noteFreed clears the holder before Unlock hands the entity on.
func (f *facadeRung) noteFreed(st *step) {
	w := &f.owner[st.ent]
	if st.mode == distlock.Exclusive {
		w.Store(0)
	} else {
		w.Add(-1)
	}
}

// close checks conservation on the drained service, then shuts it and its
// servers down.
func (f *facadeRung) close() error {
	defer f.shutdown()
	st := f.svc.Stats()
	f.stats = st
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: "+format, append([]any{f.w.name}, args...)...))
	}
	ended := st.Certified.Commits + st.Certified.Aborts + st.Fallback.Commits + st.Fallback.Aborts
	if st.Begun != ended {
		fail("sessions begun %d != commits+aborts %d", st.Begun, ended)
	}
	if st.Certified.Aborts != 0 || st.Certified.Wounds != 0 || st.Certified.Table.Wounds != 0 {
		fail("certified tier aborted %d, wounded %d/%d (must be 0)",
			st.Certified.Aborts, st.Certified.Wounds, st.Certified.Table.Wounds)
	}
	if st.Fallback.Commits+st.Fallback.Aborts != 0 {
		fail("%d sessions ran on the fallback tier", st.Fallback.Commits+st.Fallback.Aborts)
	}
	if t := st.Certified.Table; t.Grants != t.Releases || t.Held != 0 {
		fail("table grants %d != releases %d (held %d)", t.Grants, t.Releases, t.Held)
	}
	for _, srv := range f.srvs {
		m := srv.Metrics().Snapshot()
		f.wire.expiries += m.LeaseExpiries
		f.wire.fenceRejections += m.FenceRejections
	}
	if f.wire.expiries != 0 || f.wire.fenceRejections != 0 {
		fail("%d lease expiries, %d fence rejections (must be 0)", f.wire.expiries, f.wire.fenceRejections)
	}
	if v := f.violations.Load(); v != 0 {
		fail("%d mutual-exclusion violations seen by the clients", v)
	}
	for i, p := range f.probes {
		if v := p.violationCount(); v != 0 {
			fail("%d mutual-exclusion violations seen inside server %d's table", v, i)
		}
	}
	return errors.Join(errs...)
}

// --------------------------------------------------------------- runtime

// runtimeRung drives the session engine directly over an in-process
// sharded table: the facade's own cost is the facade rung minus this one.
type runtimeRung struct {
	set *classSet
	eng *dlrt.Engine
}

func openRuntime(set *classSet) (*runtimeRung, error) {
	eng, err := dlrt.NewEngine(set.ddb, dlrt.EngineOptions{Backend: dlrt.BackendSharded})
	if err != nil {
		return nil, err
	}
	return &runtimeRung{set: set, eng: eng}, nil
}

func (g *runtimeRung) txn(c, seq, cls int, tm timing, r *clientRec) error {
	prog := g.set.progs[cls]
	r.calls += int64(len(prog)) + 2
	var t0 int64
	if tm == timeTxn {
		t0 = now()
	}
	sess, err := g.eng.Begin(g.set.txns[cls])
	if err != nil {
		return err
	}
	for i := range prog {
		st := &prog[i]
		switch {
		case !st.lock:
			err = sess.Unlock(st.ent)
		case tm == timeLocks:
			l0 := now()
			err = sess.Lock(bg, st.ent, st.mode)
			r.lockNs = append(r.lockNs, now()-l0)
		default:
			err = sess.Lock(bg, st.ent, st.mode)
		}
		if err != nil {
			sess.Abort()
			return err
		}
	}
	if err := sess.Commit(); err != nil {
		sess.Abort()
		return err
	}
	if tm == timeTxn {
		r.txnNs = append(r.txnNs, now()-t0)
	}
	return nil
}

func (g *runtimeRung) close() error {
	g.eng.Close()
	return nil
}

// ----------------------------------------------------------------- table

// tableRung drives a locktable.Table directly — the in-process sharded
// table, a netlock client, or a cluster router — with the op stream's
// acquires and releases. With async set it submits a transaction's
// acquires without waiting and joins each before its release, the way a
// pipelined session does.
type tableRung struct {
	set     *classSet
	clients int
	tab     locktable.Table
	async   locktable.AsyncTable
	stop    func() // closes whatever stands behind tab
}

func (g *tableRung) inst(c, seq int) locktable.Instance {
	// Unique per transaction and within the wire's 32-bit instance space.
	id := seq*g.clients + c + 1
	return locktable.Instance{Key: locktable.InstKey{ID: id}, Prio: int64(id)}
}

func (g *tableRung) txn(c, seq, cls int, tm timing, r *clientRec) error {
	if g.async != nil {
		return g.txnPipelined(c, seq, cls, tm, r)
	}
	prog := g.set.progs[cls]
	r.calls += int64(len(prog))
	inst := g.inst(c, seq)
	var t0 int64
	if tm == timeTxn {
		t0 = now()
	}
	for i := range prog {
		st := &prog[i]
		var err error
		switch {
		case tm != timeLocks && st.lock:
			err = g.tab.Acquire(bg, inst, st.ent, st.mode)
		case tm != timeLocks:
			err = g.tab.Release(st.ent, inst.Key)
		case st.lock:
			a := now()
			err = g.tab.Acquire(bg, inst, st.ent, st.mode)
			d := now() - a
			r.lockNs = append(r.lockNs, d)
			if st.mode == distlock.Shared {
				r.sharedNs = append(r.sharedNs, d)
			} else {
				r.exclNs = append(r.exclNs, d)
			}
		default:
			a := now()
			err = g.tab.Release(st.ent, inst.Key)
			r.releaseNs = append(r.releaseNs, now()-a)
		}
		if err != nil {
			return err
		}
	}
	if tm == timeTxn {
		r.txnNs = append(r.txnNs, now()-t0)
	}
	return nil
}

func (g *tableRung) txnPipelined(c, seq, cls int, tm timing, r *clientRec) error {
	prog := g.set.progs[cls]
	r.calls += int64(len(prog))
	inst := g.inst(c, seq)
	r.comps, r.rels = r.comps[:0], r.rels[:0]
	var t0 int64
	if tm == timeTxn {
		t0 = now()
	}
	var first error
	for i := range prog {
		st := &prog[i]
		if st.lock {
			p := pending{ent: st.ent}
			if tm == timeLocks {
				p.submit = now()
			}
			p.comp = g.async.AcquireAsync(inst, st.ent, st.mode)
			r.comps = append(r.comps, p)
			continue
		}
		// The release needs the acquire's outcome (its fencing token).
		for j := range r.comps {
			if p := &r.comps[j]; p.ent == st.ent && p.comp != nil {
				if err := p.comp.Wait(bg); err != nil && first == nil {
					first = err
				}
				if tm == timeLocks {
					r.lockNs = append(r.lockNs, now()-p.submit)
				}
				p.comp = nil
			}
		}
		r.rels = append(r.rels, g.async.ReleaseAsync(st.ent, inst.Key))
	}
	for _, rel := range r.rels {
		if err := rel.Wait(bg); err != nil && first == nil {
			first = err
		}
	}
	if first == nil && tm == timeTxn {
		r.txnNs = append(r.txnNs, now()-t0)
	}
	return first
}

func (g *tableRung) close() error {
	g.stop()
	return nil
}

func openSharded(set *classSet, clients int) *tableRung {
	tab := locktable.NewSharded(set.ddb, locktable.Config{})
	return &tableRung{set: set, clients: clients, tab: tab, stop: tab.Close}
}

// wireRung is a tableRung whose table is a netlock client or a cluster
// router over benchmark-hosted servers.
type wireRung struct {
	tableRung
	srvs    []*netlock.Server
	client  *netlock.Client // single server
	cluster *cluster.Table  // two servers
	probe   *tableProbe     // real table only
}

// openWire hosts `servers` netlock servers over loopback TCP — each with a
// null table, or (null == false) the real sharded table behind a
// tableProbe — and connects a client (one server) or a cluster router.
func openWire(set *classSet, clients, servers int, null, pipelined bool) (*wireRung, error) {
	g := &wireRung{tableRung: tableRung{set: set, clients: clients}}
	so := netlock.ServerOptions{New: newNullTable}
	if !null {
		g.probe = newTableProbe(set.ddb, 0)
		so.New = func(d *distlock.DDB, cfg locktable.Config) locktable.Table {
			return newTracedTable(locktable.NewSharded(d, cfg), g.probe)
		}
	}
	g.stop = func() {
		if g.tab != nil {
			g.tab.Close()
		}
		for _, s := range g.srvs {
			s.Close()
		}
	}
	var addrs []string
	for i := 0; i < servers; i++ {
		srv, err := netlock.NewServer(set.ddb, locktable.Config{}, so)
		if err != nil {
			g.stop()
			return nil, err
		}
		g.srvs = append(g.srvs, srv)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			g.stop()
			return nil, err
		}
		addrs = append(addrs, srv.Addr())
	}
	var async locktable.AsyncTable
	if servers == 1 {
		cli, err := netlock.Dial(addrs[0], set.ddb, locktable.Config{}, netlock.DialOptions{})
		if err != nil {
			g.stop()
			return nil, err
		}
		g.client, g.tab, async = cli, cli, cli
	} else {
		ct, err := cluster.New(set.ddb, locktable.Config{}, addrs, cluster.Options{})
		if err != nil {
			g.stop()
			return nil, err
		}
		g.cluster, g.tab, async = ct, ct, ct
	}
	if pipelined {
		g.async = async
	}
	return g, nil
}
