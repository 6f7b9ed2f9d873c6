package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"distlock/internal/netlock"
	"distlock/internal/obs"
)

var (
	debugSrv    atomic.Pointer[netlock.Server]
	publishVars sync.Once
)

// startDebug serves the operator endpoints on their own listener, away
// from the lock-protocol port: Prometheus-style text at /metrics, the
// expvar JSON dump at /debug/vars, and net/http/pprof under
// /debug/pprof/. Everything is read from the server's always-on atomic
// metric bundles, so scraping costs the hot path nothing beyond the
// snapshot loads. It returns the bound address (addr may end in :0).
func startDebug(addr string, srv *netlock.Server) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}

	// Publish the same snapshots through expvar. Its registry is
	// process-global and panics on a reused name, so the vars are published
	// once and read the server startDebug last served (a repeated test run
	// starts a second one in the same process).
	debugSrv.Store(srv)
	publishVars.Do(func() {
		expvar.Publish("distlock.table", expvar.Func(func() any { return debugSrv.Load().TableMetrics().Snapshot() }))
		expvar.Publish("distlock.wire", expvar.Func(func() any { return debugSrv.Load().Metrics().Snapshot() }))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, srv.TableMetrics().Snapshot(), srv.Metrics().Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeTrace(w, srv.Spans())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	go http.Serve(ln, mux) //nolint:errcheck // dies with the process
	return ln.Addr().String(), nil
}

// writeTrace dumps the server-side span ring as JSON: the sampled
// operations the server has recently stamped through its stages
// (receive → chain start → grant → reply enqueue → reply flush), plus
// the slowest ten by server-resident time. complete_spans counts spans
// with every server stage present — the cluster smoke test asserts it
// is nonzero after a traced run.
func writeTrace(w http.ResponseWriter, ring *obs.SpanRing) {
	recs := ring.Spans()
	complete := 0
	for _, r := range recs {
		if r.Complete(obs.StageServerRecv, obs.StageReplyFlush) {
			complete++
		}
	}
	out := struct {
		Recorded      uint64           `json:"recorded"`
		CompleteSpans int              `json:"complete_spans"`
		Spans         []obs.SpanRecord `json:"spans"`
		Slowest       []obs.SpanRecord `json:"slowest"`
	}{
		Recorded:      ring.Recorded(),
		CompleteSpans: complete,
		Spans:         recs,
		Slowest:       obs.TopSpansByTotal(recs, 10),
	}
	json.NewEncoder(w).Encode(out) //nolint:errcheck // best-effort debug dump
}

// writeMetrics renders the snapshots in the Prometheus text exposition
// format (hand-rolled: counters and summaries only, no client library).
func writeMetrics(w http.ResponseWriter, t obs.TableCounters, wire obs.WireCounters) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	summary := func(name, help string, h obs.HistogramSnapshot) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", name, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %d\n", name, h.P95)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", name, h.P99)
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
	}
	counter("distlock_table_grants_total", "lock grants, fast and slow path, both modes", t.Grants)
	counter("distlock_table_shared_grants_total", "shared-mode grants (fast path + slow path)", t.SharedGrants)
	counter("distlock_table_fast_path_hits_total", "shared grants taken on the CAS fast path", t.FastPathHits)
	counter("distlock_table_slow_shared_grants_total", "shared grants through the slow path", t.SlowSharedGrants)
	counter("distlock_table_releases_total", "lock releases (actual un-holds)", t.Releases)
	gauge("distlock_table_held", "lock records currently held (grants minus releases)", t.Held)
	gauge("distlock_table_waiting", "requests parked in wait queues right now", t.Waiting)
	counter("distlock_table_wounds_total", "wound decisions made by the hosted table's wound-wait grant path", t.Wounds)
	summary("distlock_table_queue_depth", "wait-queue length observed at park time", t.QueueDepth)

	counter("distlock_wire_frames_total", "protocol frames written", wire.Frames)
	counter("distlock_wire_bytes_total", "payload bytes written including length prefixes", wire.Bytes)
	counter("distlock_wire_flushes_total", "buffered-writer flushes (one flush = one write syscall)", wire.Flushes)
	summary("distlock_wire_batch_width", "frames coalesced per flush", wire.BatchWidth)
	counter("distlock_wire_heartbeats_recv_total", "lease renewals received", wire.HeartbeatsRecv)
	counter("distlock_wire_lease_expiries_total", "leases revoked for missed heartbeats", wire.LeaseExpiries)
	counter("distlock_wire_fence_rejections_total", "releases rejected as stale (their grant was revoked by a lease expiry)", wire.FenceRejections)
	gauge("distlock_wire_in_flight", "unacknowledged requests outstanding", wire.InFlight)
	summary("distlock_wire_pipeline_depth", "pipeline depth sampled at each submission", wire.PipelineDepth)
}
