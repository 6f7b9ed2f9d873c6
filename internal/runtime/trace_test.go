package runtime

import (
	"context"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
)

// Sampled end-to-end op tracing: arming rules, span integrity across
// every backend the sampler threads through (in-process sharded, netlock
// loopback sync and pipelined, 2-server cluster), and the fast-path
// regression gate proving default-rate sampling does not disarm the
// sharded table's CAS shared fast path.

func TestTraceSamplingArming(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("x", "s1")

	off, err := NewEngine(d, EngineOptions{Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.spans != nil || off.Spans() != nil || off.StageLatency() != nil {
		t.Fatal("tracing armed without TraceSampleEvery")
	}

	def, err := NewEngine(d, EngineOptions{Strategy: StrategyNone, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if def.spans == nil || def.spanEvery != DefaultTraceSample {
		t.Fatalf("negative rate: spanEvery = %d, want default %d", def.spanEvery, DefaultTraceSample)
	}

	exp, err := NewEngine(d, EngineOptions{Strategy: StrategyNone, TraceSampleEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if exp.spans == nil || exp.spanEvery != 7 {
		t.Fatalf("explicit rate: spanEvery = %d, want 7", exp.spanEvery)
	}
}

// traceFixture builds a sample-everything certified engine on the given
// wiring. servers == 0 is the in-process sharded table; 1 dials one
// loopback netlock server; >1 a hash-partitioned cluster of that many.
func traceFixture(t *testing.T, servers, depth int) (*Engine, *model.DDB) {
	t.Helper()
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	opts := EngineOptions{Strategy: StrategyNone, TraceSampleEvery: 1, PipelineDepth: depth}
	if servers > 0 {
		var addrs []string
		for i := 0; i < servers; i++ {
			srv, err := netlock.NewServer(d, locktable.Config{}, netlock.ServerOptions{Lease: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				srv.Close()
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			addrs = append(addrs, srv.Addr())
		}
		if servers == 1 {
			opts.Backend, opts.RemoteAddr = BackendRemote, addrs[0]
		} else {
			opts.Backend, opts.RemoteAddrs = BackendCluster, addrs
		}
	}
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d
}

// TestTraceSpanIntegrity is the conformance gate over every sampled
// transport: with sampling at 1-in-1, drive certified sessions end to
// end and require (a) at least one span recorded, never more than the
// number of session ops, (b) every decoded span monotone with
// non-negative present stages, and (c) on wire transports, at least one
// acquire span complete from submit through wakeup — the full waterfall
// including the server stages carried back on the reply, and (d) the
// stage histograms' "total" row counting the sampled acquires only. On
// the in-process table sampled releases reach the ring too, but never
// the histograms.
func TestTraceSpanIntegrity(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		depth   int
		full    bool // expect complete submit→wakeup acquire spans
	}{
		{"sharded", 0, 0, false},
		{"netlock-sync", 1, 0, true},
		{"netlock-pipelined", 1, 8, true},
		{"cluster2", 2, 0, true},
		{"cluster2-pipelined", 2, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, d := traceFixture(t, tc.servers, tc.depth)
			tmpl := buildChain(d, "A", "Lx Ly Ux Uy")
			x, y := ent(t, d, "x"), ent(t, d, "y")

			const txns = 50
			ctx := context.Background()
			for i := 0; i < txns; i++ {
				s, err := e.Begin(tmpl)
				if err != nil {
					t.Fatal(err)
				}
				for _, eid := range []model.EntityID{x, y} {
					if err := s.Lock(ctx, eid, model.Exclusive); err != nil {
						t.Fatalf("txn %d: Lock(%v) = %v", i, eid, err)
					}
				}
				for _, eid := range []model.EntityID{x, y} {
					if err := s.Unlock(eid); err != nil {
						t.Fatalf("txn %d: Unlock(%v) = %v", i, eid, err)
					}
				}
				if err := s.Commit(); err != nil {
					t.Fatalf("txn %d: Commit = %v", i, err)
				}
			}

			const ops = txns * 4 // 2 acquires + 2 releases per txn
			rec := e.spans.Recorded()
			if rec == 0 {
				t.Fatal("sampling at 1-in-1 recorded no spans")
			}
			if rec > ops {
				t.Fatalf("recorded %d spans for %d ops", rec, ops)
			}

			spans := e.spans.Spans()
			fullAcquires, acquires, releases := 0, int64(0), 0
			for _, r := range spans {
				if r.Kind == obs.SpanAcquire {
					acquires++
				} else {
					releases++
				}
				prev := int64(0)
				for s := 0; s < obs.NumStages; s++ {
					v := r.Stages[s]
					if v < 0 {
						continue
					}
					if v < prev {
						t.Fatalf("non-monotone span: stage %v at %d after %d (%+v)", obs.Stage(s), v, prev, r)
					}
					prev = v
				}
				if r.Total() < 0 {
					t.Fatalf("negative total: %+v", r)
				}
				// A full client-side waterfall runs submit through
				// reply_enqueue plus the wakeup; reply_flush exists only on
				// server-side spans (the server cannot know its flush time
				// when it encodes the reply).
				if r.Kind == obs.SpanAcquire &&
					r.Complete(obs.StageSubmit, obs.StageReplyEnqueue) && r.Stages[obs.StageWakeup] >= 0 {
					fullAcquires++
				}
				if tc.servers == 0 {
					// In-process: no wire, so no server stages may appear.
					for _, s := range []obs.Stage{obs.StageServerRecv, obs.StageChainStart, obs.StageReplyEnqueue} {
						if r.Stages[s] >= 0 {
							t.Fatalf("server stage %v on an in-process span: %+v", s, r)
						}
					}
				}
			}
			if tc.full && fullAcquires == 0 {
				t.Fatal("no acquire span completed the full submit→wakeup waterfall over the wire")
			}
			stages := e.StageLatency()
			if len(stages) == 0 || stages[0].Stage != "total" {
				t.Fatalf("stage histograms %+v, want a leading total row", stages)
			}
			if stages[0].Count != acquires {
				t.Fatalf("total row counts %d samples, want the %d sampled acquires only", stages[0].Count, acquires)
			}
			if tc.servers == 0 && releases == 0 {
				t.Fatal("no in-process release span reached the ring")
			}
		})
	}
}

// TestTraceSamplingKeepsFastPath is the fast-path regression gate for
// observation: an 8-reader crowd hammering one hot entity on a
// default-rate sampled certified engine must grant every lock on the CAS
// shared fast path (FastPathHits == Grants, no slow shared grant) —
// arming the sampler must not flip the table into holder-tracking mode.
func TestTraceSamplingKeepsFastPath(t *testing.T) {
	d := model.NewDDB()
	d.MustEntity("h", "s0")
	m := obs.NewTableMetrics()
	e, err := NewEngine(d, EngineOptions{
		Strategy:         StrategyNone,
		Backend:          BackendSharded,
		Table:            locktable.Config{Metrics: m},
		TraceSampleEvery: -1, // default rate
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	b := model.NewBuilder(d, "R")
	l := b.LockShared("h")
	u := b.Unlock("h")
	b.Arc(l, u)
	tmpl := b.MustFreeze()
	h := ent(t, d, "h")

	const readers, iters = 8, 50
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func() {
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				s, err := e.Begin(tmpl)
				if err != nil {
					errs <- err
					return
				}
				if err := s.Lock(ctx, h, model.Shared); err != nil {
					errs <- err
					return
				}
				if err := s.Unlock(h); err != nil {
					errs <- err
					return
				}
				if err := s.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	s := m.Snapshot()
	if s.FastPathHits == 0 {
		t.Fatal("default-rate sampling disarmed the CAS shared fast path: zero fast-path hits under a pure reader crowd")
	}
	if s.Grants != readers*iters {
		t.Fatalf("grants = %d, want %d", s.Grants, readers*iters)
	}
	// A pure reader crowd never leaves the fast path: only a slow acquire
	// sets an entity's slow-mode bit, and only that bit routes a release
	// through the stripe mutex, so every grant must be a CAS grant.
	if s.FastPathHits != s.Grants || s.SlowSharedGrants != 0 {
		t.Fatalf("fast-path hits = %d, slow shared grants = %d of %d grants: the reader crowd left the fast path",
			s.FastPathHits, s.SlowSharedGrants, s.Grants)
	}
	// The deterministic session-id seeding must have sampled some of the
	// 400 one-lock sessions at the aggregate 1-in-64 rate.
	if e.spans.Recorded() == 0 {
		t.Fatal("default-rate sampling recorded no spans across 400 sessions")
	}
}
