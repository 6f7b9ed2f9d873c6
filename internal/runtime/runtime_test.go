package runtime

import (
	"strings"
	"testing"
	"time"

	"distlock/internal/graph"
	"distlock/internal/locktable"
	"distlock/internal/model"
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
	forEachBackend(t, func(t *testing.T, b Backend) {
		tmpls := orderedTemplates()
		e := newEngine(t, tmpls[0].DDB(), EngineOptions{Backend: b})
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
	forEachBackend(t, func(t *testing.T, b Backend) {
		tmpls := deadlockTemplates()
		e := newEngine(t, tmpls[0].DDB(), EngineOptions{Backend: b})
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
	e := newEngine(t, tmpls[0].DDB(), EngineOptions{})
	r := mixRun{templates: tmpls, twoPhase: true, clients: 8, perClient: 20, hold: 200 * time.Microsecond, seed: 4}.run(t, e)
	if r.stalled {
		t.Fatalf("stalled: %+v", r.Counters)
	}
	if r.Commits != 160 || r.Aborts != 0 {
		t.Fatalf("committed = %d, aborts = %d, want 160 and 0", r.Commits, r.Aborts)
	}
	if held := e.TableMetrics().Snapshot().Held; held != 0 {
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

// TestSerializableCommitOrder checks the end-to-end correctness property:
// the conflict graph over committed instances (built from each entity's
// lock-grant order) is acyclic — every run is serializable. Certified rows
// run ordered two-phase templates; the two-phase rows run the fallback
// tier, whose sessions are serializable whatever their template's order —
// the random row's templates are not two-phase at all. The grant log is
// the table's own (Table.Trace): in process, or fetched from the
// dlservers of the remote and cluster backends, with and without
// certified pipelining.
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
		{"sharded/twophase", orderedTemplates, true, 0, 0},
		{"sharded/twophase-deadlock-mix", deadlockTemplates, true, 0, 0},
		{"sharded/twophase-random", randomTemplates, true, 0, 0},
	}
	for _, w := range []struct {
		name    string
		servers int
	}{{"remote", 1}, {"cluster2", 2}} {
		rows = append(rows,
			row{w.name + "/none", orderedTemplates, false, w.servers, 0},
			row{w.name + "/none-depth8", orderedTemplates, false, w.servers, 8})
	}
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			tmpls := rw.tmpls()
			d := tmpls[0].DDB()
			opts := EngineOptions{}
			if rw.servers > 0 {
				opts = listenServers(t, d, rw.servers, locktable.Config{Trace: true})
			}
			opts.Table, opts.PipelineDepth = locktable.Config{Trace: true}, rw.depth
			r := mixRun{templates: tmpls, twoPhase: rw.twoPhase, clients: 6, perClient: 15,
				hold: 100 * time.Microsecond, seed: 11}.run(t, newEngine(t, d, opts))
			if r.stalled || r.Commits != 90 || r.Aborts != 0 {
				t.Fatalf("committed %d of 90, aborted %d (stalled %v)", r.Commits, r.Aborts, r.stalled)
			}
			if !checkSerializable(t, r) {
				t.Fatal("commit order not serializable")
			}
			if n := grants(r); !rw.twoPhase && n != 2*90 {
				t.Fatalf("grant log holds %d events for 90 two-lock commits", n)
			}
		})
	}
}

// grants counts the grant events of a run's log.
func grants(r mixResult) int {
	n := 0
	for _, log := range r.GrantLog {
		n += len(log)
	}
	return n
}

// checkSerializable builds the committed-instances conflict graph from the
// grant log and reports acyclicity. Only each instance's last grant of an
// entity counts: a two-phase session may take an entity, give it back on
// a miss elsewhere and take it again, and a grant released before the
// session's lock point is not an access.
func checkSerializable(t *testing.T, m mixResult) bool {
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
	for _, log := range m.GrantLog {
		last := map[int]int{} // instance id -> index of its last grant
		for i, ev := range log {
			last[ev.Inst] = i
		}
		var committed []int
		for i, ev := range log {
			if m.Committed[ev.Inst] && last[ev.Inst] == i {
				committed = append(committed, ev.Inst)
			}
		}
		for i := 0; i+1 < len(committed); i++ {
			arcs = append(arcs, arc{idx(committed[i]), idx(committed[i+1])})
		}
	}
	g := graph.NewDigraph(n)
	for _, a := range arcs {
		g.AddArc(a.from, a.to)
	}
	return g.IsAcyclic()
}
