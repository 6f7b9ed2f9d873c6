package runtime

import (
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/netlock"
	"distlock/internal/workload"
)

// TestWoundStormSoak is the gate that keeps the wound-wait fallback tier
// on the striped wound path: a long-running mixed stress under
// production-shaped contention — Zipf hot-entity skew funnelling most
// lock traffic onto a few entities, high per-class concurrency, and hold
// times wide enough that nearly every grant decision races a wound —
// table-driven over every backend that
// implements wounding (sharded at several stripe counts, and the
// cross-process netlock backend, whose wounds ride the server-push path).
//
// The assertions are the wound-wait correctness envelope:
//   - the run finishes (no stall: wounding must keep breaking every cycle),
//   - every instance eventually commits (retries keep their age priority,
//     so ever-younger arrivals cannot starve a wounded instance forever),
//   - wounds actually happened (a storm that never stormed gates nothing),
//   - conservation: commits == instances, every abort was a wound-driven
//     retry that later committed.
//
// In -short mode the soak shrinks to a smoke; run the full shape (and
// ideally -race, as CI does) before flipping any default.
func TestWoundStormSoak(t *testing.T) {
	const (
		sites, perSite = 2, 4 // 8 entities total: everything is hot
		classes        = 6
		perTxn         = 3
	)
	clients, txnsPerClient := 12, 60
	hold := 200 * time.Microsecond
	if testing.Short() {
		clients, txnsPerClient = 8, 12
		hold = 100 * time.Microsecond
	}

	// PolicyTwoPhase with Zipf-style skew via a tiny entity space: the
	// shuffled (unordered) lock order is what makes wound-wait earn its
	// keep — ordered-2PL classes never deadlock, so they never storm. The
	// zipf policy generates ordered (certifiable) shapes by design; here
	// the storm is the point, so use unordered two-phase over a hot little
	// database instead.
	sys := workload.MustGenerate(workload.Config{
		Sites: sites, EntitiesPerSite: perSite, NumTxns: classes,
		EntitiesPerTxn: perTxn, Policy: workload.PolicyTwoPhase, Seed: 4,
	})

	type backendCase struct {
		name   string
		cfg    Config
		remote bool
	}
	cases := []backendCase{
		{name: "sharded", cfg: Config{EngineOptions: EngineOptions{Backend: BackendSharded}}},
		{name: "sharded-1stripe", cfg: Config{EngineOptions: EngineOptions{Backend: BackendSharded, Table: locktable.Config{Shards: 1}}}},
		{name: "sharded-overstriped", cfg: Config{EngineOptions: EngineOptions{Backend: BackendSharded, Table: locktable.Config{Shards: 256}}}},
		{name: "remote", remote: true},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			cfg := bc.cfg
			if bc.remote {
				// The netlock server hosts a wound-wait table; the engine's
				// wound decisions travel: requester → server grant path →
				// wound push → client OnWound → session abort signal.
				srv, err := netlock.NewServer(sys.DDB, locktable.Config{WoundWait: true}, netlock.ServerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					srv.Close()
					t.Fatal(err)
				}
				defer srv.Close()
				cfg = Config{EngineOptions: EngineOptions{Backend: BackendRemote, RemoteAddr: srv.Addr()}}
			}
			cfg.Templates = sys.Txns
			cfg.Clients = clients
			cfg.TxnsPerClient = txnsPerClient
			cfg.Strategy = StrategyWoundWait
			cfg.HoldTime = hold
			cfg.StallTimeout = 10 * time.Second
			cfg.Seed = 4

			m, err := Run(cfg)
			if err != nil {
				t.Fatalf("soak stalled or failed: %v (metrics %+v)", err, m)
			}
			want := clients * txnsPerClient
			if m.Committed != want {
				t.Fatalf("committed %d of %d instances", m.Committed, want)
			}
			if m.Wounds == 0 {
				t.Fatalf("no wounds under a storm-shaped load — the gate tested nothing")
			}
			t.Logf("%s: %d commits, %d wounds, %d aborts in %v",
				bc.name, m.Committed, m.Wounds, m.Aborts, m.Elapsed)
		})
	}
}
