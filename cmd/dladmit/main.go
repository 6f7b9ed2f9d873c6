// Command dladmit drives the public distlock.LockService through an
// admission-throughput scenario: a deterministic churn stream of arriving
// and departing transaction classes is registered with the service
// (arrivals in batches), which keeps the live mix certified
// safe-and-deadlock-free by incremental Theorem 3/4 checks. It reports
// admission statistics — pair checks actually evaluated, cache hits, cycle
// checks — against the cost of a from-scratch SystemSafeDF
// re-certification of the final mix, and can finish by serving live
// traffic: concurrent client goroutines driving sessions step-by-step
// (Begin / Lock / Unlock / Commit), certified classes with NO deadlock
// handling and rejected classes as two-phase sessions.
//
// Usage:
//
//	dladmit [-events N] [-batch K] [-depart P] [-policy churn] [-run]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"distlock"
	"distlock/internal/obs"
	"distlock/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the
// command's test can drive it; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dladmit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites    = fs.Int("sites", 8, "number of database sites")
		perSite  = fs.Int("entities-per-site", 8, "entities per site")
		perTxn   = fs.Int("entities-per-txn", 3, "entities accessed per class")
		events   = fs.Int("events", 64, "churn events (arrivals + departures)")
		depart   = fs.Float64("depart", 0.25, "departure probability per event")
		policy   = fs.String("policy", "churn", "generation policy: random|two-phase|ordered|churn|zipf")
		readFrac = fs.Float64("read-fraction", 0, "probability each generated lock is SHARED (0 = all exclusive; 0.9 = read-heavy)")
		batch    = fs.Int("batch", 4, "register arrivals in batches of this size")
		budget   = fs.Int64("cycle-budget", 4096, "max Theorem 4 cycles certified per registration (0 = unlimited)")
		seed     = fs.Int64("seed", 1, "generator seed")
		run      = fs.Bool("run", false, "serve live session traffic for the final mix")
		backend  = fs.String("backend", "default", "lock table both tiers share: default|remote|cluster (-run)")
		addr     = fs.String("addr", "127.0.0.1:9911", "dlserver address for -backend remote (its -sites/-entities-per-site must match)")
		addrs    = fs.String("addrs", "", "comma-separated dlserver addresses for -backend cluster (same list, same order, on every client)")
		clients  = fs.Int("clients", 2, "client goroutines per class (-run)")
		txns     = fs.Int("txns", 10, "transactions per client (-run)")
		holdUsec = fs.Int("hold", 100, "per-lock hold time in microseconds (-run)")
		serveFor = fs.Duration("serve-timeout", 30*time.Second, "abort serving after this long — a certified-tier stall means the certification was falsified (-run)")
		pipeline = fs.Int("pipeline", 0, "certified-tier pipeline depth on wire backends: unacknowledged acquires in flight per session (0 = synchronous) (-run)")
		stats    = fs.Bool("stats", false, "dump the full ServiceStats snapshot as JSON on stdout before exit (see doc comment for the fields)")
		traceN   = fs.Int("trace-sample", 0, "sample 1 in N lock ops into end-to-end stage traces and print the slowest 10 waterfalls after serving (0 = off; negative = default rate)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ctx := context.Background()

	pol, ok := map[string]distlock.WorkloadPolicy{
		"random":    distlock.PolicyRandom,
		"two-phase": distlock.PolicyTwoPhase,
		"ordered":   distlock.PolicyOrdered,
		"churn":     distlock.PolicyChurn,
		"zipf":      distlock.PolicyZipf,
	}[*policy]
	if !ok {
		fmt.Fprintf(stderr, "dladmit: unknown policy %q\n", *policy)
		return 2
	}

	cfg := distlock.WorkloadConfig{
		Sites: *sites, EntitiesPerSite: *perSite, EntitiesPerTxn: *perTxn,
		Policy: pol, CrossArcProb: 0.3, ReadFraction: *readFrac, Seed: *seed,
	}
	ddb, trace, err := workload.ChurnTrace(cfg, *events, *depart)
	if err != nil {
		return fail(stderr, err)
	}

	// When the mix will serve traffic, certify for the per-class session
	// concurrency it will actually run with; otherwise certify the class
	// mix itself. Begin enforces the bound on the certified tier.
	mult := 1
	if *run {
		mult = *clients
		fmt.Fprintf(stdout, "certifying for %d concurrent sessions per class\n", mult)
	}
	opts := []distlock.ServiceOption{
		distlock.WithCycleBudget(*budget),
		distlock.WithMultiplicity(mult),
	}
	if *pipeline > 0 {
		opts = append(opts, distlock.WithPipelineDepth(*pipeline))
	}
	if *traceN != 0 {
		opts = append(opts, distlock.WithTraceSampling(*traceN))
	}
	table := *backend // the lock table both tiers share, as serve prints it
	switch *backend {
	case "default":
		table = "sharded"
	case "remote":
		// Both tiers' locks live in a dlserver: its generator
		// flags must match ours, which the connection handshake verifies.
		opts = append(opts, distlock.WithRemoteTable(*addr))
	case "cluster":
		// Both tiers' locks live in a hash-partitioned fleet of
		// dlservers; every one must host the same database (each
		// handshake verifies it) and every client the same address list.
		var clean []string
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				clean = append(clean, a)
			}
		}
		if len(clean) == 0 {
			fmt.Fprintln(stderr, "dladmit: -backend cluster needs -addrs host:port[,host:port...]")
			return 2
		}
		opts = append(opts, distlock.WithRemoteCluster(clean...))
	default:
		fmt.Fprintf(stderr, "dladmit: unknown backend %q (want default|remote|cluster)\n", *backend)
		return 2
	}

	svc, err := distlock.Open(ddb, opts...)
	if err != nil {
		return fail(stderr, err)
	}
	defer svc.Close()

	var pending []*distlock.Transaction
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		rs, err := svc.RegisterBatch(ctx, pending)
		if err != nil {
			return err
		}
		for _, r := range rs {
			if r.Admitted {
				fmt.Fprintf(stdout, "register %-6s -> certified (runs with no deadlock handling)\n", r.Class)
			} else {
				fmt.Fprintf(stdout, "register %-6s -> fallback (two-phase): %s\n", r.Class, r.Reason)
			}
		}
		pending = pending[:0]
		return nil
	}

	start := time.Now()
	for _, ev := range trace {
		if ev.Arrive {
			pending = append(pending, ev.Txn)
			if len(pending) >= *batch {
				if err := flush(); err != nil {
					return fail(stderr, err)
				}
			}
			continue
		}
		// keep service state in trace order before the departure
		if err := flush(); err != nil {
			return fail(stderr, err)
		}
		if svc.Deregister(ev.Txn.Name()) {
			fmt.Fprintf(stdout, "deregister %-6s -> departed\n", ev.Txn.Name())
		}
	}
	if err := flush(); err != nil {
		return fail(stderr, err)
	}
	elapsed := time.Since(start)

	st := svc.Stats().Admission
	fmt.Fprintf(stdout, "\n%d events in %v: live=%d admitted=%d rejected=%d evicted=%d\n",
		*events, elapsed.Round(time.Microsecond), st.Live, st.Admitted, st.Rejected, st.Evicted)
	fmt.Fprintf(stdout, "incremental certification: %d PairSafeDF evaluations, %d cache hits, %d cycle checks\n",
		st.PairChecks, st.CacheHits, st.CyclesChecked)

	// What would one from-scratch re-certification of the final mix cost?
	snap := svc.Snapshot()
	before := distlock.PairEvalCount()
	okDF, _ := distlock.SystemSafeDF(snap)
	scratch := distlock.PairEvalCount() - before
	if !okDF {
		fmt.Fprintln(stderr, "dladmit: BUG: certified set fails from-scratch SystemSafeDF")
		return 1
	}
	fmt.Fprintf(stdout, "from-scratch SystemSafeDF of the final %d-class mix: %d pair evaluations (one shot)\n",
		snap.N(), scratch)

	if *run {
		if code := serve(ctx, svc, table, stdout, stderr, *clients, *txns, time.Duration(*holdUsec)*time.Microsecond, *serveFor); code != 0 {
			return code
		}
	}
	if *traceN != 0 {
		printSlowest(stdout, svc)
	}
	if *stats {
		if err := dumpStats(stdout, svc); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

// dumpStats emits the service's full ServiceStats snapshot as indented
// JSON on stdout — the machine-readable exit report scripts diff or
// archive. Field guide:
//
//   - admission: certification work and decisions — live set size,
//     admitted/rejected/evicted classes, pair_checks (PairSafeDF
//     evaluations actually run), cache_hits vs cache_misses on the
//     fingerprint-keyed pair-verdict cache, cycles_checked (Theorem 4),
//     and budget_exhausted (classes rejected for exceeding -cycle-budget).
//   - certified / fallback: one block per tier of the one engine —
//     commits, aborts, wounds (always 0), the pipelined_ops/sync_ops
//     split. The certified block also carries the counters of the lock
//     table both tiers share (grants, shared_grants split into
//     fast_path_hits + slow_shared_grants, releases, held = grants −
//     releases, wounds and stripe_splits (both always 0), queue_depth
//     histogram; the fallback block's table stays zero) and, under
//     -trace-sample, trace_stages: nanosecond histograms of both tiers'
//     sampled Lock calls, "total" first (sampled Lock latency on every
//     backend), then each stamped stage.
//   - begun: sessions opened. Conservation: after all sessions close,
//     begun == certified.commits+aborts + fallback.commits+aborts.
func dumpStats(stdout io.Writer, svc *distlock.LockService) error {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(svc.Stats())
}

// printSlowest renders the slowest sampled operation traces as
// stage-by-stage waterfalls: each line is one op, total latency first,
// then every stage the op passed through with the time attributed to it
// (the gap since the previous present stage) in microseconds. Stages a
// span never reached — server stages on in-process backends, for
// example — are simply omitted.
func printSlowest(stdout io.Writer, svc *distlock.LockService) {
	spans := svc.SlowestSpans(10)
	if len(spans) == 0 {
		fmt.Fprintln(stdout, "\ntrace sampling armed but no spans recorded (too few ops for the sampling rate?)")
		return
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Fprintf(stdout, "\nslowest %d sampled ops (stage-by-stage, µs attributed to each stage):\n", len(spans))
	for i, rec := range spans {
		kind := "acquire"
		if rec.Kind == obs.SpanRelease {
			kind = "release"
		}
		fmt.Fprintf(stdout, "  #%-2d %s entity=%d part=%d total=%.1fµs\n", i+1, kind, rec.Entity, rec.Part, us(rec.Total()))
		line := make([]string, 0, obs.NumStages)
		for s := 0; s < obs.NumStages; s++ {
			if g := rec.Gap(obs.Stage(s)); g >= 0 {
				line = append(line, fmt.Sprintf("%s +%.1f", obs.Stage(s), us(g)))
			}
		}
		fmt.Fprintf(stdout, "      %s\n", strings.Join(line, " | "))
	}
}

// serve drives live traffic through the service: per registered class,
// `clients` goroutines each carry `txns` transaction instances end to end
// through the session API. No tier aborts a session: certified classes
// cannot deadlock, and fallback sessions take their whole entity set
// without waiting while they hold. The timeout is the stall watchdog:
// clients still blocked when it expires mean the certification was
// falsified — the cancellation propagates into every
// blocked Lock and serve returns a non-zero exit code. table names the
// lock table both tiers share in the banner.
func serve(ctx context.Context, svc *distlock.LockService, table string, stdout, stderr io.Writer, clients, txns int, hold, timeout time.Duration) int {
	classes := svc.Classes()
	fmt.Fprintf(stdout, "\nserving: %d classes x %d clients x %d txns (hold %v per lock; both tiers on the %s lock table)\n",
		len(classes), clients, txns, hold, table)
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	errCh := make(chan error, len(classes)*clients)
	var wg sync.WaitGroup
	for _, class := range classes {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(class string) {
				defer wg.Done()
				for i := 0; i < txns; i++ {
					sess, err := svc.Begin(sctx, class)
					if err == nil {
						err = sess.DriveHold(sctx, hold)
					}
					if err != nil {
						errCh <- fmt.Errorf("class %s: %w", class, err)
						return
					}
				}
			}(class)
		}
	}
	wg.Wait()
	close(errCh)
	failed, stalled := false, false
	for err := range errCh {
		fmt.Fprintln(stderr, "dladmit:", err)
		failed = true
		if errors.Is(err, context.DeadlineExceeded) {
			stalled = true
		}
	}
	if stalled {
		fmt.Fprintf(stderr, "dladmit: serving did not finish within %v — certified tier stalled? (deadlock with no handling falsifies the certification)\n", timeout)
	}

	st := svc.Stats()
	fmt.Fprintf(stdout, "certified tier: committed=%d aborts=%d\n", st.Certified.Commits, st.Certified.Aborts)
	fmt.Fprintf(stdout, "fallback  tier: committed=%d aborts=%d\n", st.Fallback.Commits, st.Fallback.Aborts)
	fmt.Fprintf(stdout, "served %d sessions in %v\n", st.Begun, time.Since(start).Round(time.Millisecond))
	if got := st.Certified.Commits + st.Certified.Aborts + st.Certified.Discarded +
		st.Fallback.Commits + st.Fallback.Aborts + st.Fallback.Discarded; got != st.Begun {
		fmt.Fprintf(stderr, "dladmit: BUG: conservation violated: begun=%d closed=%d\n", st.Begun, got)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dladmit:", err)
	return 1
}
