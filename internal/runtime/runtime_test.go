package runtime

import (
	"strings"
	"testing"
	"time"

	"distlock/internal/graph"
	"distlock/internal/locktable"
	"distlock/internal/model"
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
		e := newEngine(t, tmpls[0].DDB(), EngineOptions{Strategy: StrategyNone, Backend: b})
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

// TestDeadlockMixStallsWithoutHandling: an uncertified mix deadlocks under
// StrategyNone on either backend — the fast path must stall identically,
// not paper over the missing handling.
func TestDeadlockMixStallsWithoutHandling(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		tmpls := deadlockTemplates()
		e := newEngine(t, tmpls[0].DDB(), EngineOptions{Strategy: StrategyNone, Backend: b})
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

func TestWoundWaitCompletesDeadlockMix(t *testing.T) {
	tmpls := deadlockTemplates()
	e := newEngine(t, tmpls[0].DDB(), EngineOptions{Strategy: StrategyWoundWait})
	r := mixRun{templates: tmpls, clients: 8, perClient: 20, hold: 200 * time.Microsecond, seed: 4}.run(t, e)
	if r.stalled {
		t.Fatalf("stalled: %+v", r.Counters)
	}
	if r.Commits != 160 {
		t.Fatalf("committed = %d, want 160", r.Commits)
	}
	if r.Wounds == 0 {
		t.Fatal("wound-wait never wounded under heavy conflict")
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
	e := newEngine(t, d, EngineOptions{Strategy: StrategyWoundWait})
	r := mixRun{templates: []*model.Transaction{tmpl}, clients: 8, perClient: 15, seed: 5}.run(t, e)
	if r.stalled {
		t.Fatalf("stalled: %+v", r.Counters)
	}
	if r.Commits != 120 {
		t.Fatalf("committed = %d", r.Commits)
	}
}

// TestSerializableCommitOrder checks the end-to-end correctness property:
// for two-phase templates, the conflict graph over committed instances
// (built from each entity's lock-grant order, final epochs only) is
// acyclic — every run is serializable. The grant log is the table's own
// (Table.Trace): in process, or fetched from the dlservers of the remote
// and cluster backends, with and without certified pipelining.
func TestSerializableCommitOrder(t *testing.T) {
	type row struct {
		name     string
		strat    Strategy
		servers  int // 0 = in-process sharded table
		depth    int
		deadlock bool // the uncertified mix (wound-wait rows only)
	}
	rows := []row{
		{"sharded/none", StrategyNone, 0, 0, false},
		{"sharded/woundwait", StrategyWoundWait, 0, 0, false},
		{"sharded/woundwait-deadlock-mix", StrategyWoundWait, 0, 0, true},
	}
	for _, w := range []struct {
		name    string
		servers int
	}{{"remote", 1}, {"cluster2", 2}} {
		rows = append(rows,
			row{w.name + "/none", StrategyNone, w.servers, 0, false},
			row{w.name + "/woundwait", StrategyWoundWait, w.servers, 0, false},
			row{w.name + "/none-depth8", StrategyNone, w.servers, 8, false})
	}
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			tmpls := orderedTemplates()
			if rw.deadlock {
				tmpls = deadlockTemplates()
			}
			d := tmpls[0].DDB()
			opts := EngineOptions{}
			if rw.servers > 0 {
				opts = listenServers(t, d, rw.servers,
					locktable.Config{Trace: true, WoundWait: rw.strat == StrategyWoundWait})
			}
			opts.Strategy, opts.Table, opts.PipelineDepth = rw.strat, locktable.Config{Trace: true}, rw.depth
			r := mixRun{templates: tmpls, clients: 6, perClient: 15, hold: 100 * time.Microsecond, seed: 11}.run(t, newEngine(t, d, opts))
			if r.stalled || r.Commits != 90 {
				t.Fatalf("committed %d of 90 (stalled %v)", r.Commits, r.stalled)
			}
			if !checkSerializable(t, r) {
				t.Fatal("commit order not serializable")
			}
			if n := grants(r); rw.strat == StrategyNone && n != 2*90 {
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
// grant log and reports acyclicity.
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
		var committed []int
		for _, ev := range log {
			if ep, ok := m.CommitEpoch[ev.Inst]; ok && ep == ev.Epoch {
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

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyNone: "certified-none", StrategyWoundWait: "wound-wait",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
