package main

import (
	"math"
	"runtime"
	"time"
)

// windows is the number of untraced measurement windows of a traffic run;
// every end-to-end value is the median across them, min and max kept.
const windows = 4

// warmShare is the part of each slice spent warming up (connections,
// caches, the table's adaptive striping) before measurement starts.
const warmShare = 0.1

// pool accumulates slices of one window or one ladder rung.
type pool struct {
	txns, calls, failed int64
	clientTime          time.Duration // Σ clients × elapsed: mean txn latency = clientTime/txns
	elapsed             time.Duration
	alloc               uint64

	txnNs, lockNs, sharedNs, exclNs, releaseNs []int64
	beginNs, commitNs                          []int64
}

func (p *pool) add(s *slice, alloc uint64) {
	p.elapsed += s.elapsed
	p.clientTime += time.Duration(s.clients) * s.elapsed
	p.alloc += alloc
	for _, r := range s.recs {
		p.txns += r.txns
		p.calls += r.calls
		p.failed += r.failed
		p.txnNs = append(p.txnNs, r.txnNs...)
		p.lockNs = append(p.lockNs, r.lockNs...)
		p.sharedNs = append(p.sharedNs, r.sharedNs...)
		p.exclNs = append(p.exclNs, r.exclNs...)
		p.releaseNs = append(p.releaseNs, r.releaseNs...)
		p.beginNs = append(p.beginNs, r.beginNs...)
		p.commitNs = append(p.commitNs, r.commitNs...)
	}
}

func (p *pool) perSec() float64 { return ratio(float64(p.txns), p.elapsed.Seconds()) }

// meanTxnUs is the mean transaction latency by Little's law: in a closed
// loop every client is always inside a transaction, so no clock is read.
func (p *pool) meanTxnUs() float64 {
	return ratio(float64(p.clientTime.Microseconds()), float64(p.txns))
}

// measure warms the rung up and then drives it for dur, returning the
// measured slice and the bytes allocated while it ran.
func measure(set *classSet, clients int, dur time.Duration, rg rung, traced bool) (*slice, uint64) {
	guard := watchdog(dur)
	defer guard.Stop()
	drive(set, clients, time.Duration(float64(dur)*warmShare), rg, false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := drive(set, clients, dur, rg, traced)
	runtime.ReadMemStats(&m1)
	return s, m1.TotalAlloc - m0.TotalAlloc
}

// warmProcess runs one discarded slice before anything is measured, so the
// first window does not pay for a cold process (heap growth, first dials).
func warmProcess(w workload, set *classSet, dur time.Duration) error {
	f, _, err := openFacade(w, set, facadeMode{})
	if err != nil {
		return err
	}
	measure(set, w.clients, dur, f, false)
	return f.close()
}

// watchdog ends the process if a slice overruns by far: a certified mix
// that deadlocks must fail the run, not hang it.
func watchdog(dur time.Duration) *time.Timer {
	return time.AfterFunc(2*dur+30*time.Second, func() {
		fatalf("a %v slice did not finish within %v: the workload is stuck", dur, 2*dur+30*time.Second)
	})
}

// runTraffic is the untraced run of a traffic workload: `windows` windows,
// each visiting every panel member on a freshly set-up service for an
// equal share of the window.
func runTraffic(w workload, cfg config) (*workloadResult, error) {
	all, err := genClassSets(w, cfg.seed, cfg.trafficPanel+windows*cfg.setupBatch)
	if err != nil {
		return nil, err
	}
	sets, setupSets := all[:cfg.trafficPanel], all[cfg.trafficPanel:]
	res := newResult(w.name)
	per := time.Duration(cfg.seconds / windows / float64(len(sets)) * float64(time.Second))
	if err := warmProcess(w, sets[0], per); err != nil {
		return nil, err
	}
	var perS, p50, p95, alloc, setup []float64
	for i := range windows {
		var p pool
		for _, set := range sets {
			f, _, err := openFacade(w, set, facadeMode{})
			if err != nil {
				return nil, err
			}
			s, a := measure(set, w.clients, per, f, false)
			p.add(s, a)
			res.check(f.close())
		}
		res.Attempted += p.calls
		res.Failed += p.failed
		perS = append(perS, p.perSec())
		p50 = append(p50, percentile(p.txnNs, 0.50)/1e3)
		p95 = append(p95, percentile(p.txnNs, 0.95)/1e3)
		alloc = append(alloc, ratio(float64(p.alloc), float64(p.txns)))

		// Set-up is timed on members of its own: certifying one class set
		// costs anywhere from 0.1 to 10 ms depending on how dense its
		// conflict graph came out, so the median needs far more draws than
		// the windows can afford to drive.
		var setups []float64
		for _, set := range setupSets[i*cfg.setupBatch : (i+1)*cfg.setupBatch] {
			f, sd, err := openFacade(w, set, facadeMode{})
			if err != nil {
				return nil, err
			}
			setups = append(setups, sd.Seconds())
			res.check(f.close())
		}
		setup = append(setup, summarize(setups).Median)
	}
	res.EndToEnd["op_per_s"] = summarize(perS)
	res.EndToEnd["op_p50_us"] = summarize(p50)
	res.EndToEnd["op_p95_us"] = summarize(p95)
	res.EndToEnd["alloc_b_per_op"] = summarize(alloc)
	res.EndToEnd["setup_s"] = summarize(setup)
	// Every class of every member was admitted, or openFacade failed.
	res.EndToEnd["admit_ratio"] = &stat{Median: 1, Min: 1, Max: 1, N: windows}
	return res, nil
}

// trafficLadder is the traced run's traffic half: the same panel driven
// through the facade (reference, benchmark-traced, program-sampled) and
// then through each lower rung of the stack. It fills res.PerLayer.
func trafficLadder(w workload, sets []*classSet, cfg config, res *workloadResult, tf *traceFile) error {
	per := time.Duration(cfg.seconds / ladderRungs / float64(len(sets)) * float64(time.Second))
	L := res.PerLayer
	if err := warmProcess(w, sets[0], per); err != nil {
		return err
	}

	// over drives one rung kind across the panel and pools the slices;
	// after sees each rung once it has been drained and closed.
	over := func(traced bool, open func(*classSet) (rung, error), after func(rung, *slice)) (*pool, error) {
		var p pool
		for _, set := range sets {
			rg, err := open(set)
			if err != nil {
				return nil, err
			}
			s, a := measure(set, w.clients, per, rg, traced)
			p.add(s, a)
			res.check(rg.close())
			if after != nil {
				after(rg, s)
			}
		}
		res.Attempted += p.calls
		res.Failed += p.failed
		return &p, nil
	}
	facade := func(mode facadeMode) func(*classSet) (rung, error) {
		return func(set *classSet) (rung, error) {
			f, _, err := openFacade(w, set, mode)
			return f, err
		}
	}

	// Reference: the workload as configured, untraced. Its closing Stats
	// prove which paths the workload exercised.
	var pipelinedOps, syncOps, aborts, wounds, grants, fastHits, splits, expiries, fenceRej, depthP99 int64
	ref, err := over(false, facade(facadeMode{}), func(rg rung, _ *slice) {
		f := rg.(*facadeRung)
		c := f.stats.Certified
		pipelinedOps += c.PipelinedOps
		syncOps += c.SyncOps
		aborts += c.Aborts + f.stats.Fallback.Aborts
		wounds += c.Wounds + f.stats.Fallback.Wounds
		grants += c.Table.Grants
		fastHits += c.Table.FastPathHits
		splits += c.Table.StripeSplits
		depthP99 = max(depthP99, c.Table.QueueDepth.P99)
		expiries += f.wire.expiries
		fenceRej += f.wire.fenceRejections
	})
	if err != nil {
		return err
	}
	L["runtime.pipelined_op_ratio"] = ratio(float64(pipelinedOps), float64(pipelinedOps+syncOps))
	L["runtime.aborts"] = float64(aborts)
	L["runtime.wounds"] = float64(wounds)
	L["locktable.fast_path_ratio"] = ratio(float64(fastHits), float64(grants))
	L["locktable.queue_depth_p99"] = float64(depthP99)
	L["locktable.stripe_splits"] = float64(splits)
	L["netlock.lease_expiries"] = float64(expiries)
	L["netlock.fence_rejections"] = float64(fenceRej)

	// Traced: spans around every call, owner words, wrapped server tables.
	var srv probeTotals
	traced, err := over(true, facade(facadeMode{traced: true}), func(rg rung, s *slice) {
		for _, r := range s.recs {
			tf.addAll(r.spans.spans, r.spans.dropped)
		}
		for _, p := range rg.(*facadeRung).probes {
			srv.add(p)
			tf.addAll(p.spans.take())
		}
	})
	if err != nil {
		return err
	}
	L["distlock.begin_p50_us"] = percentile(traced.beginNs, 0.50) / 1e3
	L["distlock.commit_p50_us"] = percentile(traced.commitNs, 0.50) / 1e3
	L["distlock.lock_p50_us"] = percentile(traced.lockNs, 0.50) / 1e3
	L["distlock.lock_p95_us"] = percentile(traced.lockNs, 0.95) / 1e3
	L["distlock.lock_p99_us"] = percentile(traced.lockNs, 0.99) / 1e3
	L["distlock.txn_p99_us"] = percentile(traced.txnNs, 0.99) / 1e3
	L["bench.span_overhead_pct"] = 100 * (1 - ratio(traced.perSec(), ref.perSec()))

	// Sampled: the program's own op tracing, to price it.
	var stages []any
	sampled, err := over(false, facade(facadeMode{sampling: 16}), func(rg rung, _ *slice) {
		stages = append(stages, rg.(*facadeRung).stats.Certified.TraceStages)
	})
	if err != nil {
		return err
	}
	L["obs.trace_overhead_pct"] = 100 * (1 - ratio(sampled.perSec(), ref.perSec()))
	res.TraceStages = stages

	// In-process ladder: facade → runtime engine → sharded table.
	local := ref
	if w.servers > 0 {
		if local, err = over(false, facade(facadeMode{local: true}), nil); err != nil {
			return err
		}
	}
	rt, err := over(false, func(set *classSet) (rung, error) { return openRuntime(set) }, nil)
	if err != nil {
		return err
	}
	tab, err := over(false, func(set *classSet) (rung, error) { return openSharded(set, w.clients), nil }, nil)
	if err != nil {
		return err
	}
	opsPerTxn := ratio(float64(tab.calls), float64(tab.txns))
	L["distlock.txn_self_mean_us"] = local.meanTxnUs() - rt.meanTxnUs()
	L["runtime.txn_mean_us"] = rt.meanTxnUs()
	L["runtime.txn_self_mean_us"] = rt.meanTxnUs() - tab.meanTxnUs()
	L["runtime.lock_p50_ns"] = percentile(rt.lockNs, 0.50)
	L["runtime.ops_per_s"] = rt.perSec() * opsPerTxn
	L["locktable.acquire_p50_ns"] = percentile(tab.lockNs, 0.50)
	L["locktable.acquire_p99_ns"] = percentile(tab.lockNs, 0.99)
	L["locktable.shared_acquire_p50_ns"] = percentile(tab.sharedNs, 0.50)
	L["locktable.excl_acquire_p50_ns"] = percentile(tab.exclNs, 0.50)
	L["locktable.release_p50_ns"] = percentile(tab.releaseNs, 0.50)
	L["locktable.ops_per_s"] = tab.perSec() * opsPerTxn

	// Wire ladder: null-table server (the wire alone), the real table
	// behind the same wire, then the cluster router over two null servers.
	var wireSync, wirePipe wireTotals
	wire := func(servers int, null, pipelined bool, after func(*wireRung)) (*pool, error) {
		return over(false, func(set *classSet) (rung, error) {
			return openWire(set, w.clients, servers, null, pipelined)
		}, func(rg rung, _ *slice) { after(rg.(*wireRung)) })
	}
	nullSync, err := wire(1, true, false, wireSync.addWire)
	if err != nil {
		return err
	}
	nullPipe, err := wire(1, true, true, wirePipe.addWire)
	if err != nil {
		return err
	}
	var real probeTotals
	realSync, err := wire(1, false, false, func(g *wireRung) { real.add(g.probe) })
	if err != nil {
		return err
	}
	clSync, err := wire(2, true, false, func(*wireRung) {})
	if err != nil {
		return err
	}
	var fenceJoins int64
	var partFrames [2]int64
	clPipe, err := wire(2, true, true, func(g *wireRung) {
		fenceJoins += g.cluster.FenceJoins()
		for p := 0; p < g.cluster.Partitions(); p++ {
			partFrames[p] += g.cluster.PartitionMetrics(p).Snapshot().Frames
		}
	})
	if err != nil {
		return err
	}
	nullMean, realMean := mean(nullSync.lockNs)/1e3, mean(realSync.lockNs)/1e3
	L["netlock.null_rtt_p50_us"] = percentile(nullSync.lockNs, 0.50) / 1e3
	L["netlock.null_rtt_p99_us"] = percentile(nullSync.lockNs, 0.99) / 1e3
	L["netlock.null_rtt_mean_us"] = nullMean
	L["netlock.null_ops_per_s"] = nullSync.perSec() * opsPerTxn
	L["netlock.real_rtt_mean_us"] = realMean
	L["netlock.wait_share"] = ratio(realMean-nullMean, realMean)
	L["netlock.null_pipelined_ops_per_s"] = nullPipe.perSec() * opsPerTxn
	L["netlock.pipelined_complete_p50_us"] = percentile(nullPipe.lockNs, 0.50) / 1e3
	// Wire accounting comes from the null rung that speaks the way the
	// workload does.
	wt, ops := wireSync, float64(nullSync.calls)
	if w.depth > 0 {
		wt, ops = wirePipe, float64(nullPipe.calls)
	}
	L["netlock.frames_per_op"] = ratio(float64(wt.frames), ops)
	L["netlock.bytes_per_op"] = ratio(float64(wt.bytes), ops)
	L["netlock.flushes_per_op"] = ratio(float64(wt.flushes), ops)
	L["netlock.batch_width_p50"] = float64(wt.batchP50)
	L["netlock.pipeline_depth_p50"] = float64(wt.depthP50)
	L["cluster.null_rtt_mean_us"] = mean(clSync.lockNs) / 1e3
	L["cluster.route_self_mean_us"] = mean(clSync.lockNs)/1e3 - nullMean
	L["cluster.null_pipelined_ops_per_s"] = clPipe.perSec() * opsPerTxn
	// Fence joins describe the workload's own path: they are reported only
	// where the workload itself routes across partitions.
	L["cluster.fence_joins_per_txn"] = 0
	if w.servers > 1 {
		L["cluster.fence_joins_per_txn"] = ratio(float64(fenceJoins), float64(clPipe.txns))
	}
	hi, lo := float64(max(partFrames[0], partFrames[1])), float64(min(partFrames[0], partFrames[1]))
	L["cluster.partition_imbalance"] = ratio(hi-lo, (hi+lo)/2)

	// The hosted table: measured inside the workload's own servers when it
	// has them, otherwise behind the wire rung above.
	if w.servers == 0 {
		srv = real
	}
	acquisitions := float64(srv.tryHits + srv.acquires) // granted inline, or by a blocking Acquire
	L["locktable.server_acquire_mean_us"] = ratio(float64(srv.tryNs+srv.acquireNs)/1e3, acquisitions)
	L["locktable.server_try_hit_ratio"] = ratio(float64(srv.tryHits), acquisitions)
	busy := traced.elapsed
	if w.servers == 0 {
		busy = realSync.elapsed
	}
	L["locktable.server_busy_share"] = ratio(float64(srv.tryNs+srv.releaseNs), float64(busy.Nanoseconds()))

	// Reconciliation: do the layer prices add up to the measured
	// Session.Lock? Printed, not gated.
	stackSelf := mean(local.lockNs) - mean(tab.lockNs) // runtime + distlock per lock
	lockMean := mean(traced.lockNs)
	L["recon.local_gap_pct"], L["recon.remote_sync_gap_pct"] = 0, 0
	switch {
	case w.servers == 0:
		L["recon.local_gap_pct"] = 100 * math.Abs(mean(tab.lockNs)+stackSelf-lockMean) / lockMean
	case w.depth == 0:
		sum := nullMean*1e3 + L["locktable.server_acquire_mean_us"]*1e3 + stackSelf
		L["recon.remote_sync_gap_pct"] = 100 * math.Abs(sum-lockMean) / lockMean
	}
	return nil
}

// ladderRungs is the number of equal shares the traced run's --seconds is
// split into (11 traffic rungs, the rest for the certification ladder).
const ladderRungs = 14

// probeTotals sums tableProbes across servers and panel members.
type probeTotals struct {
	tryHits, tryNs, acquires, acquireNs, releaseNs int64
}

func (t *probeTotals) add(p *tableProbe) {
	t.tryHits += p.tryHits.Load()
	t.tryNs += p.tryNs.Load()
	t.acquires += p.acquires.Load()
	t.acquireNs += p.acquireNs.Load()
	t.releaseNs += p.releaseNs.Load()
}

// addWire adds both directions of a single-server wire rung: the client's
// request side and the server's reply side.
func (t *wireTotals) addWire(g *wireRung) {
	c := g.client.Metrics().Snapshot()
	s := g.srvs[0].Metrics().Snapshot()
	t.frames += c.Frames + s.Frames
	t.bytes += c.Bytes + s.Bytes
	t.flushes += c.Flushes + s.Flushes
	t.batchP50 = max(t.batchP50, c.BatchWidth.P50)
	t.depthP50 = max(t.depthP50, c.PipelineDepth.P50)
}
