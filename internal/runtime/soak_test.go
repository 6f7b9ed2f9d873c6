package runtime

import (
	"testing"
	"time"

	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
	"distlock/internal/workload"
)

// TestFallbackSoak is the fallback tier's soak: a long-running stress of
// two-phase sessions under production-shaped contention — a hot little
// database funnelling every lock onto a few entities, high per-class
// concurrency, and hold times wide enough that nearly every first Lock
// meets a holder.
// The classes are uncertified on purpose: unordered two-phase templates,
// which deadlock as certified sessions, and random templates, which are
// not even two-phase. It is table-driven over the sharded table's stripe
// layouts and the wire backends (one netlock server, a two-server
// cluster), where every try and every blocking acquire crosses the wire
// and the taps wrap the servers' tables.
//
// The assertions are the fallback tier's correctness envelope:
//   - the run finishes (no stall: a session never waits while it holds,
//     so no waits-for cycle can form),
//   - every instance commits and none aborts (nothing picks a victim),
//   - the table holds nothing at the end,
//   - no grant met a conflicting holder, and the commit order is
//     serializable (the conflict graph a locktabletest.Tap records over
//     committed instances is acyclic).
//
// In -short mode the soak shrinks to a smoke; CI runs it under -race.
func TestFallbackSoak(t *testing.T) {
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
	mixes := []struct {
		name   string
		policy workload.Policy
	}{{"twophase", workload.PolicyTwoPhase}, {"random", workload.PolicyRandom}}
	generate := func(policy workload.Policy) *model.System {
		return workload.MustGenerate(workload.Config{
			Sites: sites, EntitiesPerSite: perSite, NumTxns: classes,
			EntitiesPerTxn: perTxn, Policy: policy, Seed: 4,
		})
	}

	cases := []struct {
		name    string
		shards  int
		servers int // > 0: dlservers behind the remote or cluster backend
	}{
		{name: "sharded"},
		{name: "sharded-1stripe", shards: 1},
		{name: "sharded-overstriped", shards: 256},
		{name: "remote", servers: 1},
		{name: "cluster2", servers: 2},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			for _, mix := range mixes {
				t.Run(mix.name, func(t *testing.T) {
					sys := generate(mix.policy)
					var opts EngineOptions
					var metrics *obs.TableMetrics
					if bc.servers == 0 {
						opts.Table, metrics = meteredSharded(sys.DDB, bc.shards)
					}
					e, taps := tappedEngine(t, sys.DDB, bc.servers, opts)
					if metrics == nil {
						metrics = clientMetrics(e.table)
					}
					m := mixRun{templates: sys.Txns, twoPhase: true, clients: clients, perClient: txnsPerClient,
						hold: hold, stall: 10 * time.Second, seed: 4}.run(t, e)
					if m.stalled {
						t.Fatalf("soak stalled (counters %+v)", m.Counters)
					}
					if want := int64(clients * txnsPerClient); m.Commits != want || m.Aborts != 0 {
						t.Fatalf("committed %d of %d instances, %d aborts", m.Commits, want, m.Aborts)
					}
					if held := metrics.Snapshot().Held; held != 0 {
						t.Fatalf("table holds %d locks after the soak", held)
					}
					if n := violations(taps); n != 0 {
						t.Fatalf("%d grants met a conflicting holder", n)
					}
					if !checkSerializable(t, m, grantLog(taps)) {
						t.Fatal("commit order not serializable")
					}
					t.Logf("%s/%s: %d commits in %v", bc.name, mix.name, m.Commits, m.elapsed)
				})
			}
		})
	}
}

// clientMetrics is a wire table's client-side counter bundle.
func clientMetrics(tab locktable.Table) *obs.TableMetrics {
	if c, ok := tab.(*netlock.Client); ok {
		return c.TableMetrics()
	}
	return tab.(*cluster.Table).Metrics()
}

// listenServers starts n loopback netlock servers with opts and returns
// their addresses.
func listenServers(t *testing.T, d *model.DDB, n int, opts netlock.ServerOptions) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := netlock.NewServer(d, locktable.Config{}, opts)
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
	return addrs
}

// dialTable dials the servers at addrs as one lock table: a netlock
// client for one address, a cluster router for several.
func dialTable(t *testing.T, d *model.DDB, addrs []string, opts netlock.DialOptions) locktable.Table {
	t.Helper()
	var tab locktable.Table
	var err error
	if len(addrs) == 1 {
		tab, err = netlock.Dial(addrs[0], d, locktable.Config{}, opts)
	} else {
		tab, err = cluster.New(d, locktable.Config{}, addrs, cluster.Options{Dial: opts})
	}
	if err != nil {
		t.Fatal(err)
	}
	return tab
}
