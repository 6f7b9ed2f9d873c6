package runtime

import (
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/workload"
)

// TestWoundStormSoak is the gate that keeps the wound-wait fallback tier
// on the striped wound path: a long-running mixed stress under
// production-shaped contention — Zipf hot-entity skew funnelling most
// lock traffic onto a few entities, high per-class concurrency, and hold
// times wide enough that nearly every grant decision races a wound —
// table-driven over every backend that
// implements wounding (sharded at several stripe counts, the cross-process
// netlock backend, whose wounds ride the server-push path, and two such
// servers behind the cluster router).
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

	cases := []struct {
		name    string
		opts    EngineOptions
		servers int // > 0: wound-wait dlservers behind the remote or cluster backend
	}{
		{name: "sharded", opts: EngineOptions{Backend: BackendSharded}},
		{name: "sharded-1stripe", opts: EngineOptions{Backend: BackendSharded, Table: locktable.Config{Shards: 1}}},
		{name: "sharded-overstriped", opts: EngineOptions{Backend: BackendSharded, Table: locktable.Config{Shards: 256}}},
		{name: "remote", servers: 1},
		{name: "cluster2", servers: 2},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			opts := bc.opts
			if bc.servers > 0 {
				// The dlservers host wound-wait tables; the engine's wound
				// decisions travel: requester → server grant path → wound
				// push → client OnWound → session abort signal. Behind the
				// cluster router each entity's wounds come from its owner.
				opts = listenServers(t, sys.DDB, bc.servers, locktable.Config{WoundWait: true})
			}
			opts.Strategy = StrategyWoundWait
			m := mixRun{templates: sys.Txns, clients: clients, perClient: txnsPerClient,
				hold: hold, stall: 10 * time.Second, seed: 4}.run(t, newEngine(t, sys.DDB, opts))
			if m.stalled {
				t.Fatalf("soak stalled (counters %+v)", m.Counters)
			}
			want := clients * txnsPerClient
			if int(m.Commits) != want {
				t.Fatalf("committed %d of %d instances", m.Commits, want)
			}
			if m.Wounds == 0 {
				t.Fatalf("no wounds under a storm-shaped load — the gate tested nothing")
			}
			t.Logf("%s: %d commits, %d wounds, %d aborts in %v",
				bc.name, m.Commits, m.Wounds, m.Aborts, m.elapsed)
		})
	}
}

// listenServers starts n loopback netlock servers hosting cfg and returns
// engine options that dial them: BackendRemote for one, BackendCluster for
// several.
func listenServers(t *testing.T, d *model.DDB, n int, cfg locktable.Config) EngineOptions {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := netlock.NewServer(d, cfg, netlock.ServerOptions{})
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
	if n == 1 {
		return EngineOptions{Backend: BackendRemote, RemoteAddr: addrs[0]}
	}
	return EngineOptions{Backend: BackendCluster, RemoteAddrs: addrs}
}
