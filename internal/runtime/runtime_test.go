package runtime

import (
	"errors"
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

func TestCertifiedMixNoHandling(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		m, err := Run(Config{
			Templates: orderedTemplates(), Clients: 6, TxnsPerClient: 20,
			EngineOptions: EngineOptions{Strategy: StrategyNone, Backend: b}, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != 120 {
			t.Fatalf("committed = %d, want 120", m.Committed)
		}
		if m.Aborts != 0 {
			t.Fatalf("aborts = %d, want 0 on certified mix", m.Aborts)
		}
	})
}

// TestDeadlockMixStallsWithoutHandling: an uncertified mix deadlocks under
// StrategyNone on either backend — the fast path must stall identically,
// not paper over the missing handling.
func TestDeadlockMixStallsWithoutHandling(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		m, err := Run(Config{
			Templates: deadlockTemplates(), Clients: 8, TxnsPerClient: 30,
			EngineOptions: EngineOptions{Strategy: StrategyNone, Backend: b}, StallTimeout: 150 * time.Millisecond,
			HoldTime: 300 * time.Microsecond, Seed: 2,
		})
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("want ErrStalled, got err=%v metrics=%+v", err, m)
		}
		if m.Committed >= 8*30 {
			t.Fatal("stalled run committed everything")
		}
	})
}

func TestDetectionCompletesDeadlockMix(t *testing.T) {
	m, err := Run(Config{
		Templates: deadlockTemplates(), Clients: 8, TxnsPerClient: 20,
		EngineOptions: EngineOptions{Strategy: StrategyDetect, DetectEvery: time.Millisecond},
		HoldTime:      200 * time.Microsecond, Seed: 3,
	})
	if err != nil {
		t.Fatalf("err=%v metrics=%+v", err, m)
	}
	if m.Committed != 160 {
		t.Fatalf("committed = %d, want 160", m.Committed)
	}
	if m.Detected == 0 {
		t.Fatal("detector never found a cycle under a deadlock-prone mix")
	}
}

func TestWoundWaitCompletesDeadlockMix(t *testing.T) {
	m, err := Run(Config{
		Templates: deadlockTemplates(), Clients: 8, TxnsPerClient: 20,
		EngineOptions: EngineOptions{Strategy: StrategyWoundWait}, HoldTime: 200 * time.Microsecond, Seed: 4,
	})
	if err != nil {
		t.Fatalf("err=%v metrics=%+v", err, m)
	}
	if m.Committed != 160 {
		t.Fatalf("committed = %d, want 160", m.Committed)
	}
	if m.Wounds == 0 {
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
	m, err := Run(Config{
		Templates: []*model.Transaction{tmpl}, Clients: 8, TxnsPerClient: 15,
		EngineOptions: EngineOptions{Strategy: StrategyDetect}, Seed: 5,
	})
	if err != nil {
		t.Fatalf("err=%v metrics=%+v", err, m)
	}
	if m.Committed != 120 {
		t.Fatalf("committed = %d", m.Committed)
	}
}

// TestSerializableCommitOrder checks the end-to-end correctness property:
// for two-phase templates, the conflict graph over committed instances
// (built from each entity's lock-grant order, final epochs only) is
// acyclic — every run is serializable.
func TestSerializableCommitOrder(t *testing.T) {
	for _, strat := range []Strategy{StrategyNone, StrategyDetect, StrategyWoundWait} {
		for _, b := range backends {
			m, err := Run(Config{
				Templates: orderedTemplates(), Clients: 6, TxnsPerClient: 15,
				EngineOptions: EngineOptions{Strategy: strat, Backend: b, Table: locktable.Config{Trace: true}},
				HoldTime:      100 * time.Microsecond, Seed: 11,
			})
			if err != nil {
				t.Fatalf("%v/%v: err=%v", strat, b, err)
			}
			if !checkSerializable(t, m) {
				t.Fatalf("%v/%v: commit order not serializable", strat, b)
			}
		}
		if strat == StrategyNone {
			continue
		}
		m, err := Run(Config{
			Templates: deadlockTemplates(), Clients: 6, TxnsPerClient: 15,
			EngineOptions: EngineOptions{Strategy: strat, Table: locktable.Config{Trace: true}},
			HoldTime:      100 * time.Microsecond, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%v: err=%v", strat, err)
		}
		if !checkSerializable(t, m) {
			t.Fatalf("%v: commit order not serializable", strat)
		}
	}
}

// checkSerializable builds the committed-instances conflict graph from the
// grant log and reports acyclicity.
func checkSerializable(t *testing.T, m *Metrics) bool {
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

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("accepted empty config")
	}
	if _, err := Run(Config{Templates: orderedTemplates()}); err == nil {
		t.Fatal("accepted zero clients")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyNone: "certified-none", StrategyDetect: "detection", StrategyWoundWait: "wound-wait",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
