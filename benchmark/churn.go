package main

import (
	"fmt"
	"runtime"
	"time"

	"distlock"
)

// passes is the number of full replays of a churn run; every end-to-end
// value is the median across them. Each replays the whole panel on freshly
// opened services: the pair-verdict cache survives eviction, so a reused
// service would not repeat the work.
const passes = 3

// replay is the outcome of one trace replayed through one service.
type replay struct {
	calls, failed      int64 // Register + Deregister calls, and those that errored
	arrivals, admitted int64
	setup, elapsed     time.Duration
	alloc              uint64
	registerNs         []int64
	evictNs            []int64
	counts             admitCounts
	cycles             cycleCounts
	// live is the certified set right after the trace's last arrival:
	// the fullest set the trace leaves admitted.
	live *distlock.System
}

// admitCounts are the admission counters that must repeat exactly when a
// trace is replayed: the decisions and the pair work.
type admitCounts struct {
	Admitted, Rejected, PairChecks, CacheHits, CacheMisses int64
}

// cycleCounts are the Theorem-4 counters. They do NOT repeat exactly: the
// admission service builds its interaction graph by ranging over a map, so
// the order cycles are enumerated in — and with it how many are checked
// before a violation is found, or whether a doomed class is rejected by a
// violation or by the budget — differs between replays. The decisions do
// not: admitting needs every cycle checked, in any order.
type cycleCounts struct {
	Cycles, BudgetExhausted int64
}

func countsOf(s distlock.AdmissionStats) (admitCounts, cycleCounts) {
	return admitCounts{s.Admitted, s.Rejected, s.PairChecks, s.CacheHits, s.CacheMisses},
		cycleCounts{s.CyclesChecked, s.BudgetExhausted}
}

func lastArrival(tr *churnTrace) int {
	last := 0
	for i, ev := range tr.events {
		if ev.Arrive {
			last = i
		}
	}
	return last
}

// replayFacade replays a trace through LockService.Register/Deregister on
// a freshly opened service. With spans set it records one per call.
func replayFacade(w workload, tr *churnTrace, spans *spanBuf) (*replay, error) {
	r := &replay{}
	start := time.Now()
	opts := []distlock.ServiceOption{distlock.WithCycleBudget(w.budget)}
	if w.mult > 0 {
		opts = append(opts, distlock.WithMultiplicity(w.mult))
	}
	svc, err := distlock.Open(tr.ddb, opts...)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	r.setup = time.Since(start)
	last := lastArrival(tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i, ev := range tr.events {
		r.calls++
		a := now()
		if !ev.Arrive {
			svc.Deregister(ev.Txn.Name())
			b := now()
			r.evictNs = append(r.evictNs, b-a)
			if spans != nil {
				spans.add(span{name: "distlock.deregister", start: a, end: b, trace: uint64(i) + 1, root: true})
			}
			continue
		}
		res, err := svc.Register(bg, ev.Txn)
		b := now()
		r.arrivals++
		if err != nil {
			r.failed++
			noteFailure(err)
			continue
		}
		r.registerNs = append(r.registerNs, b-a)
		if res.Admitted {
			r.admitted++
		}
		if spans != nil {
			spans.add(span{name: "distlock.register", start: a, end: b, trace: uint64(i) + 1, root: true})
		}
		if i == last {
			r.elapsed += time.Since(begin)
			r.live = svc.Snapshot()
			begin = time.Now()
		}
	}
	r.elapsed += time.Since(begin)
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.counts, r.cycles = countsOf(svc.Stats().Admission)
	return r, nil
}

// replayAdmission is the admission rung: the same trace driven straight
// into the admission service, below the facade.
func replayAdmission(w workload, tr *churnTrace) (*replay, error) {
	r := &replay{}
	adm := distlock.NewAdmission(tr.ddb, distlock.AdmissionOptions{CycleBudget: w.budget, Multiplicity: w.mult})
	for _, ev := range tr.events {
		r.calls++
		a := now()
		if !ev.Arrive {
			adm.Evict(ev.Txn.Name())
			r.evictNs = append(r.evictNs, now()-a)
			continue
		}
		res, err := adm.Admit(bg, ev.Txn)
		r.registerNs = append(r.registerNs, now()-a)
		r.arrivals++
		if err != nil {
			return nil, fmt.Errorf("%s: admission rung: %w", w.name, err)
		}
		if res.Admitted {
			r.admitted++
		}
	}
	r.counts, r.cycles = countsOf(adm.Stats())
	return r, nil
}

// recertify checks a certified set from scratch, independently of the
// incremental decisions that built it: the whole system with Theorem 4,
// and — when classes run more than one session at a time — every class
// against its own copy with Corollary 3.
func recertify(w workload, live *distlock.System) error {
	if live == nil || len(live.Txns) == 0 {
		return nil
	}
	if ok, v := distlock.SystemSafeDF(live); !ok {
		return fmt.Errorf("%s: the admitted set is not safe and deadlock-free: %v", w.name, v)
	}
	if w.mult > 1 {
		for _, t := range live.Txns {
			if !distlock.TwoCopiesSafeDF(t) {
				return fmt.Errorf("%s: admitted class %s deadlocks against its own copy", w.name, t.Name())
			}
		}
	}
	return nil
}

// runChurn is the untraced run of a churn workload: `passes` replays of
// the whole trace panel.
func runChurn(w workload, cfg config) (*workloadResult, error) {
	traces, err := genTraces(w, cfg.seed, cfg.churnPanel, cfg.churnEvents)
	if err != nil {
		return nil, err
	}
	res := newResult(w.name)
	first := make([]admitCounts, len(traces))
	var perS, p50, p95, alloc, setup, admit []float64
	for pass := range passes {
		var calls, arrivals, admitted int64
		var elapsed time.Duration
		var bytes uint64
		var registerNs []int64
		var setups []float64
		for k, tr := range traces {
			guard := watchdog(time.Minute)
			r, err := replayFacade(w, tr, nil)
			guard.Stop()
			if err != nil {
				return nil, err
			}
			calls += r.calls
			res.Failed += r.failed
			arrivals += r.arrivals
			admitted += r.admitted
			elapsed += r.elapsed
			bytes += r.alloc
			registerNs = append(registerNs, r.registerNs...)
			setups = append(setups, r.setup.Seconds())
			if pass == 0 {
				first[k] = r.counts
				res.check(recertify(w, r.live))
			} else if r.counts != first[k] {
				res.check(fmt.Errorf("%s: trace %d pass %d counts %+v differ from pass 1's %+v",
					w.name, k, pass+1, r.counts, first[k]))
			}
		}
		res.Attempted += calls
		perS = append(perS, ratio(float64(calls), elapsed.Seconds()))
		p50 = append(p50, percentile(registerNs, 0.50)/1e3)
		p95 = append(p95, percentile(registerNs, 0.95)/1e3)
		alloc = append(alloc, ratio(float64(bytes), float64(calls)))
		setup = append(setup, summarize(setups).Median)
		admit = append(admit, ratio(float64(admitted), float64(arrivals)))
	}
	res.EndToEnd["op_per_s"] = summarize(perS)
	res.EndToEnd["op_p50_us"] = summarize(p50)
	res.EndToEnd["op_p95_us"] = summarize(p95)
	res.EndToEnd["alloc_b_per_op"] = summarize(alloc)
	res.EndToEnd["setup_s"] = summarize(setup)
	res.EndToEnd["admit_ratio"] = summarize(admit)
	return res, nil
}

// certLadder is the traced run's certification half: the traces replayed
// through the facade with a span per call, then through the admission
// service alone, then the static tests called directly. It fills
// res.PerLayer and returns the set each trace left admitted.
func certLadder(w workload, traces []*churnTrace, res *workloadResult, tf *traceFile) ([]*distlock.System, error) {
	L := res.PerLayer
	var top, adm replay
	var lives []*distlock.System
	var pairNs []int64
	var systemNs time.Duration
	var pairEvals int64
	for k, tr := range traces {
		spans := newSpanBuf(len(tr.events))
		guard := watchdog(time.Minute)
		before := distlock.PairEvalCount()
		f, err := replayFacade(w, tr, spans)
		if err != nil {
			return nil, err
		}
		pairEvals += distlock.PairEvalCount() - before
		tf.addAll(spans.spans, spans.dropped)
		top.merge(f)
		lives = append(lives, f.live)
		a, err := replayAdmission(w, tr)
		guard.Stop()
		if err != nil {
			return nil, err
		}
		adm.merge(a)
		if a.counts != f.counts {
			res.check(fmt.Errorf("%s: trace %d: admission rung counts %+v differ from the facade's %+v",
				w.name, k, a.counts, f.counts))
		}
		res.check(recertify(w, f.live))

		// core: each arriving class against the few that arrived before it,
		// and the admitted set from scratch.
		var seen []*distlock.Transaction
		for _, ev := range tr.events {
			if !ev.Arrive {
				continue
			}
			for _, other := range seen[max(0, len(seen)-pairsPerArrival):] {
				t0 := now()
				distlock.PairSafeDF(ev.Txn, other)
				pairNs = append(pairNs, now()-t0)
			}
			seen = append(seen, ev.Txn)
		}
		if f.live != nil && len(f.live.Txns) > 0 {
			t0 := time.Now()
			distlock.SystemSafeDF(f.live)
			systemNs += time.Since(t0)
		}
	}
	res.Attempted += top.calls
	res.Failed += top.failed
	events := float64(top.calls)
	L["core.pair_check_p50_us"] = percentile(pairNs, 0.50) / 1e3
	L["core.system_check_ms"] = float64(systemNs.Microseconds()) / 1e3 / float64(len(traces))
	L["core.pair_evals_per_event"] = ratio(float64(pairEvals), events)
	L["admission.admit_p50_ms"] = percentile(adm.registerNs, 0.50) / 1e6
	L["admission.admit_p90_ms"] = percentile(adm.registerNs, 0.90) / 1e6
	L["admission.evict_p50_us"] = percentile(adm.evictNs, 0.50) / 1e3
	L["admission.cycles_per_event"] = ratio(float64(adm.cycles.Cycles), events)
	L["admission.cache_hit_ratio"] = ratio(float64(adm.counts.CacheHits), float64(adm.counts.CacheHits+adm.counts.CacheMisses))
	L["admission.budget_exhausted_ratio"] = ratio(float64(adm.cycles.BudgetExhausted), float64(adm.arrivals))
	L["distlock.register_self_mean_ms"] = (mean(top.registerNs) - mean(adm.registerNs)) / 1e6
	return lives, nil
}

// pairsPerArrival is how many earlier arrivals the core rung pairs each
// arriving class with.
const pairsPerArrival = 4

// merge pools another replay's samples and counters into r.
func (r *replay) merge(o *replay) {
	r.calls += o.calls
	r.failed += o.failed
	r.arrivals += o.arrivals
	r.admitted += o.admitted
	r.registerNs = append(r.registerNs, o.registerNs...)
	r.evictNs = append(r.evictNs, o.evictNs...)
	r.counts.Admitted += o.counts.Admitted
	r.counts.Rejected += o.counts.Rejected
	r.counts.PairChecks += o.counts.PairChecks
	r.counts.CacheHits += o.counts.CacheHits
	r.counts.CacheMisses += o.counts.CacheMisses
	r.cycles.Cycles += o.cycles.Cycles
	r.cycles.BudgetExhausted += o.cycles.BudgetExhausted
}
