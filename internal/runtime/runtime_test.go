package runtime

import (
	"strings"
	"testing"
	"time"

	"distlock/internal/graph"
	"distlock/internal/locktable"
	"distlock/internal/locktable/locktabletest"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
	"distlock/internal/workload"
)

func buildChain(d *model.DDB, name, spec string) *model.Transaction {
	b := model.NewBuilder(d, name)
	var prev model.NodeID = -1
	for _, tok := range strings.Fields(spec) {
		var id model.NodeID
		if tok[0] == 'L' {
			id = b.Lock(tok[1:])
		} else {
			id = b.Unlock(tok[1:])
		}
		if prev >= 0 {
			b.Arc(prev, id)
		}
		prev = id
	}
	return b.MustFreeze()
}

func orderedTemplates() []*model.Transaction {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	return []*model.Transaction{
		buildChain(d, "A", "Lx Ly Ux Uy"),
		buildChain(d, "B", "Lx Ly Ux Uy"),
	}
}

func deadlockTemplates() []*model.Transaction {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	return []*model.Transaction{
		buildChain(d, "A", "Lx Ly Ux Uy"),
		buildChain(d, "B", "Ly Lx Uy Ux"),
	}
}

// meteredSharded builds a sharded table over d with the given stripe
// count (0 = default) and returns it with the counter bundle it counts
// into.
func meteredSharded(d *model.DDB, shards int) (locktable.Table, *obs.TableMetrics) {
	m := obs.NewTableMetrics()
	return locktable.NewSharded(d, locktable.Config{Shards: shards, Metrics: m}), m
}

// newEngine builds an engine over d for a test; mixRun.run closes it.
func newEngine(t *testing.T, d *model.DDB, opts EngineOptions) *Engine {
	t.Helper()
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestCertifiedMixNoHandling(t *testing.T) {
	forEachBackend(t, func(t *testing.T, table newTable) {
		tmpls := orderedTemplates()
		e := newEngine(t, tmpls[0].DDB(), EngineOptions{Table: table(tmpls[0].DDB())})
		r := mixRun{templates: tmpls, clients: 6, perClient: 20, seed: 1}.run(t, e)
		if r.stalled {
			t.Fatal("certified mix stalled")
		}
		if r.Commits != 120 {
			t.Fatalf("committed = %d, want 120", r.Commits)
		}
		if r.Aborts != 0 {
			t.Fatalf("aborts = %d, want 0 on certified mix", r.Aborts)
		}
	})
}

// TestDeadlockMixStallsWithoutHandling: an uncertified mix run as
// certified sessions deadlocks on every backend — the fast path must
// stall identically, not paper over the missing certification.
func TestDeadlockMixStallsWithoutHandling(t *testing.T) {
	forEachBackend(t, func(t *testing.T, table newTable) {
		tmpls := deadlockTemplates()
		e := newEngine(t, tmpls[0].DDB(), EngineOptions{Table: table(tmpls[0].DDB())})
		r := mixRun{templates: tmpls, clients: 8, perClient: 30,
			hold: 300 * time.Microsecond, stall: 150 * time.Millisecond, seed: 2}.run(t, e)
		if !r.stalled {
			t.Fatalf("want a stall, got %+v", r.Counters)
		}
		if r.Commits >= 8*30 {
			t.Fatal("stalled run committed everything")
		}
	})
}

// TestWoundWaitCompletesDeadlockMix: the mix that stalls as certified
// sessions completes when run two-phase, with no deadlock handling and no
// abort — the fallback tier that replaced wound-wait.
func TestWoundWaitCompletesDeadlockMix(t *testing.T) {
	tmpls := deadlockTemplates()
	tab, metrics := meteredSharded(tmpls[0].DDB(), 0)
	e := newEngine(t, tmpls[0].DDB(), EngineOptions{Table: tab})
	r := mixRun{templates: tmpls, twoPhase: true, clients: 8, perClient: 20, hold: 200 * time.Microsecond, seed: 4}.run(t, e)
	if r.stalled {
		t.Fatalf("stalled: %+v", r.Counters)
	}
	if r.Commits != 160 || r.Aborts != 0 {
		t.Fatalf("committed = %d, aborts = %d, want 160 and 0", r.Commits, r.Aborts)
	}
	if held := metrics.Snapshot().Held; held != 0 {
		t.Fatalf("table holds %d locks after the run", held)
	}
}

func TestDistributedParallelTemplates(t *testing.T) {
	// Parallel per-site chains exercise concurrent issue of multiple ops.
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	b := model.NewBuilder(d, "P")
	b.LockUnlock("x")
	b.LockUnlock("y")
	b.LockUnlock("z")
	tmpl := b.MustFreeze()
	e := newEngine(t, d, EngineOptions{})
	r := mixRun{templates: []*model.Transaction{tmpl}, twoPhase: true, clients: 8, perClient: 15, seed: 5}.run(t, e)
	if r.stalled {
		t.Fatalf("stalled: %+v", r.Counters)
	}
	if r.Commits != 120 {
		t.Fatalf("committed = %d", r.Commits)
	}
}

// randomTemplates are non-two-phase classes (workload.PolicyRandom, an
// entity may be unlocked before another is locked) over a small database:
// as certified sessions their mix is unsafe, so only the two-phase
// fallback tier may run it.
func randomTemplates() []*model.Transaction {
	return workload.MustGenerate(workload.Config{
		Sites: 2, EntitiesPerSite: 2, NumTxns: 4, EntitiesPerTxn: 3,
		Policy: workload.PolicyRandom, Seed: 11,
	}).Txns
}

// rwTemplates are ordered two-phase classes (workload.PolicyOrdered)
// whose every lock is shared with probability one half: a certified
// read/write mix in which every entity is locked in both modes, so readers
// conflict with writers and, in process, some shared grants take the
// sharded table's CAS fast path.
func rwTemplates() []*model.Transaction {
	return workload.MustGenerate(workload.Config{
		Sites: 2, EntitiesPerSite: 2, NumTxns: 4, EntitiesPerTxn: 3,
		Policy: workload.PolicyOrdered, ReadFraction: 0.5, Seed: 4,
	}).Txns
}

// TestSerializableCommitOrder checks the end-to-end correctness property:
// the conflict graph over committed instances (built from each entity's
// lock-grant order) is acyclic — every run is serializable — and no grant
// ever met a conflicting holder. Certified rows run ordered two-phase
// templates; the two-phase rows run the fallback tier, whose sessions are
// serializable whatever their template's order — the random row's
// templates are not two-phase at all. The grants are recorded by a
// locktabletest.Tap: over the in-process table, or over the table each
// dlserver of the remote and cluster backends hosts, with and without
// certified pipelining. The wire twophase-depth8 rows run a deadlocking
// mix two-phase on a pipelined engine, whose two-phase sessions must take
// the synchronous path. The rw rows mix shared and exclusive locks; in
// process the tap leaves the CAS shared fast path on.
func TestSerializableCommitOrder(t *testing.T) {
	type row struct {
		name     string
		tmpls    func() []*model.Transaction
		twoPhase bool
		servers  int // 0 = in-process sharded table
		depth    int
	}
	rows := []row{
		{"sharded/none", orderedTemplates, false, 0, 0},
		{"sharded/rw", rwTemplates, false, 0, 0},
		{"sharded/twophase", orderedTemplates, true, 0, 0},
		{"sharded/twophase-deadlock-mix", deadlockTemplates, true, 0, 0},
		{"sharded/twophase-random", randomTemplates, true, 0, 0},
		{"remote/rw", rwTemplates, false, 1, 0},
	}
	for _, w := range []struct {
		name    string
		servers int
	}{{"remote", 1}, {"cluster2", 2}} {
		rows = append(rows,
			row{w.name + "/none", orderedTemplates, false, w.servers, 0},
			row{w.name + "/none-depth8", orderedTemplates, false, w.servers, 8},
			row{w.name + "/twophase-depth8", deadlockTemplates, true, w.servers, 8})
	}
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			tmpls := rw.tmpls()
			const clients, perClient = 6, 15
			opts := EngineOptions{PipelineDepth: rw.depth}
			var metrics *obs.TableMetrics
			if rw.servers == 0 {
				opts.Table, metrics = meteredSharded(tmpls[0].DDB(), 0)
			}
			e, taps := tappedEngine(t, tmpls[0].DDB(), rw.servers, opts)
			r := mixRun{templates: tmpls, twoPhase: rw.twoPhase, clients: clients, perClient: perClient,
				hold: 100 * time.Microsecond, seed: 11}.run(t, e)
			if r.stalled || r.Commits != clients*perClient || r.Aborts != 0 {
				t.Fatalf("committed %d of %d, aborted %d (stalled %v)", r.Commits, clients*perClient, r.Aborts, r.stalled)
			}
			if n := violations(taps); n != 0 {
				t.Fatalf("%d grants met a conflicting holder", n)
			}
			log := grantLog(taps)
			if !checkSerializable(t, r, log) {
				t.Fatal("commit order not serializable")
			}
			want := 0
			for c := 0; c < clients; c++ {
				want += perClient * len(tmpls[c%len(tmpls)].Entities())
			}
			if n := grants(log); !rw.twoPhase && n != want {
				t.Fatalf("grant log holds %d events for %d certified commits; want %d", n, r.Commits, want)
			}
			if rw.servers == 0 && strings.HasSuffix(rw.name, "/rw") && metrics.Snapshot().FastPathHits == 0 {
				t.Fatal("no shared grant took the CAS fast path under the tap")
			}
		})
	}
}

// tappedEngine builds an engine whose grants locktabletest.Taps record.
// With servers == 0 the tap wraps opts.Table, an in-process table;
// otherwise it wraps the table each of that many loopback dlservers
// hosts, and the engine runs on a table dialled to them.
func tappedEngine(t *testing.T, d *model.DDB, servers int, opts EngineOptions) (*Engine, []*locktabletest.Tap) {
	t.Helper()
	if servers == 0 {
		tap := locktabletest.New(opts.Table)
		opts.Table = tap
		return newEngine(t, d, opts), []*locktabletest.Tap{tap}
	}
	var taps []*locktabletest.Tap
	addrs := listenServers(t, d, servers, netlock.ServerOptions{
		New: func(d *model.DDB, cfg locktable.Config) locktable.Table {
			tap := locktabletest.New(locktable.NewSharded(d, cfg))
			taps = append(taps, tap)
			return tap
		},
	})
	opts.Table = dialTable(t, d, addrs, netlock.DialOptions{})
	return newEngine(t, d, opts), taps
}

// grantLog merges the taps' records per entity (each entity lives behind
// exactly one tap, so per-entity order survives). A server's tap records
// composed keys; their low 32 bits are the engine's instance ID.
func grantLog(taps []*locktabletest.Tap) map[model.EntityID][]locktabletest.Grant {
	log := map[model.EntityID][]locktabletest.Grant{}
	for _, tap := range taps {
		for _, g := range tap.Grants() {
			g.Inst = int(uint32(g.Inst))
			log[g.Entity] = append(log[g.Entity], g)
		}
	}
	return log
}

// violations sums the taps' mutual-exclusion violations.
func violations(taps []*locktabletest.Tap) int {
	n := 0
	for _, tap := range taps {
		n += tap.Violations()
	}
	return n
}

// grants counts the events of a grant log.
func grants(log map[model.EntityID][]locktabletest.Grant) int {
	n := 0
	for _, l := range log {
		n += len(l)
	}
	return n
}

// checkSerializable builds the committed-instances conflict graph from the
// grant log and reports acyclicity. An arc joins two grants of an entity
// only if they conflict (one is exclusive): two readers' relative order is
// not an access order. Only each instance's last grant of an entity
// counts: a two-phase session may take an entity, give it back on a miss
// elsewhere and take it again, and a grant released before the session's
// lock point is not an access.
func checkSerializable(t *testing.T, m mixResult, grantLog map[model.EntityID][]locktabletest.Grant) bool {
	t.Helper()
	ids := map[int]int{}
	var n int
	idx := func(id int) int {
		if i, ok := ids[id]; ok {
			return i
		}
		ids[id] = n
		n++
		return n - 1
	}
	type arc struct{ from, to int }
	var arcs []arc
	for _, log := range grantLog {
		last := map[int]int{} // instance id -> index of its last grant
		for i, g := range log {
			last[g.Inst] = i
		}
		// writer is the entity's latest committed exclusive access, readers
		// the shared ones since: a reader follows the writer, a writer
		// follows both.
		writer, readers := -1, []int(nil)
		for i, g := range log {
			if !m.Committed[g.Inst] || last[g.Inst] != i {
				continue
			}
			v := idx(g.Inst)
			if writer >= 0 {
				arcs = append(arcs, arc{writer, v})
			}
			if g.Mode == locktable.Exclusive {
				for _, r := range readers {
					arcs = append(arcs, arc{r, v})
				}
				writer, readers = v, readers[:0]
			} else {
				readers = append(readers, v)
			}
		}
	}
	g := graph.NewDigraph(n)
	for _, a := range arcs {
		g.AddArc(a.from, a.to)
	}
	return g.IsAcyclic()
}
