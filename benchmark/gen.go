package main

import (
	"fmt"

	"distlock"
)

// workload is one named input shape. The parameters are part of the
// benchmark's definition: changing one changes what every later PR is
// compared against, so they live here and nowhere else.
type workload struct {
	name string
	// churn workloads replay arrival/departure traces through Register and
	// Deregister; traffic workloads drive sessions.
	churn bool

	// gen is the generator config (Seed is filled per panel member).
	gen distlock.WorkloadConfig
	// clients is the closed-loop caller count; client c runs classes
	// c, c+clients, ... so at multiplicity 1 every class has one owner.
	clients int
	// servers is the number of in-process netlock servers the certified
	// tier talks to over loopback TCP: 0 in-process table, 1
	// WithRemoteTable, 2 WithRemoteCluster.
	servers int
	// depth is WithPipelineDepth (0 = synchronous).
	depth int
	// budget is WithCycleBudget; traffic workloads always pass one so a
	// dense class set cannot hang RegisterBatch in cycle enumeration.
	budget int64

	// Churn only (the trace length is scale.churnEvents).
	depart float64
	mult   int
}

// scale is how much input a run measures. One generated class set (8
// classes) or churn trace is a tiny sample: its conflict graph alone moves
// throughput by 10–25 % and a trace's replay time by 40 %. A run therefore
// measures a panel of independently generated members derived from the seed
// and pools them, so the reported value is a property of the workload shape
// rather than of one draw.
type scale struct {
	trafficPanel int // class sets an untraced traffic run drives
	churnPanel   int // traces an untraced churn run replays
	layerPanel   int // members the traced run uses: its metrics carry no bound
	setupBatch   int // further class sets set up (undriven) per window to time set-up
	churnEvents  int // events per churn trace
}

var (
	fullScale  = scale{trafficPanel: 32, churnPanel: 96, layerPanel: 4, setupBatch: 64, churnEvents: 100}
	quickScale = scale{trafficPanel: 2, churnPanel: 2, layerPanel: 2, setupBatch: 2, churnEvents: 20}
)

var workloads = []workload{
	{
		name: "local-rw",
		gen: distlock.WorkloadConfig{Sites: 4, EntitiesPerSite: 8, NumTxns: 8, EntitiesPerTxn: 3,
			Policy: distlock.PolicyZipf, ZipfS: 1.2, ReadFraction: 0.8},
		clients: 2, budget: 1 << 16,
	},
	{
		name: "remote-sync",
		gen: distlock.WorkloadConfig{Sites: 4, EntitiesPerSite: 16, NumTxns: 8, EntitiesPerTxn: 3,
			Policy: distlock.PolicyOrdered},
		clients: 8, servers: 1, budget: 1 << 16,
	},
	{
		name: "remote-pipelined",
		gen: distlock.WorkloadConfig{Sites: 4, EntitiesPerSite: 16, NumTxns: 8, EntitiesPerTxn: 3,
			Policy: distlock.PolicyOrdered},
		clients: 8, servers: 1, depth: 8, budget: 1 << 16,
	},
	{
		name: "cluster2-pipelined",
		gen: distlock.WorkloadConfig{Sites: 4, EntitiesPerSite: 16, NumTxns: 8, EntitiesPerTxn: 3,
			Policy: distlock.PolicyOrdered},
		clients: 8, servers: 2, depth: 8, budget: 1 << 16,
	},
	{
		name: "admit-churn", churn: true,
		gen: distlock.WorkloadConfig{Sites: 8, EntitiesPerSite: 8, EntitiesPerTxn: 3,
			Policy: distlock.PolicyChurn},
		// The traced run drives the set a trace leaves admitted; two
		// in-process clients, as on local-rw.
		clients: 2,
		depart:  0.25, mult: 2, budget: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// memberSeed derives panel member k's generator seed from the run seed.
func memberSeed(seed int64, k int) int64 {
	return int64(uint64(seed)*1_000_003 + uint64(k))
}

// step is one operation of a class program, resolved once so the hot loop
// does no template lookups.
type step struct {
	lock bool
	ent  distlock.EntityID
	name string
	mode distlock.Mode
}

// classSet is one generated traffic input: a database, its transaction
// classes, and each class's operation sequence (a linear extension of the
// class's partial order).
type classSet struct {
	ddb   *distlock.DDB
	txns  []*distlock.Transaction
	progs [][]step
}

func newClassSet(ddb *distlock.DDB, txns []*distlock.Transaction) *classSet {
	s := &classSet{ddb: ddb, txns: txns, progs: make([][]step, len(txns))}
	for i, t := range txns {
		for _, nid := range t.Order() {
			nd := t.Node(nid)
			s.progs[i] = append(s.progs[i], step{
				lock: nd.Kind == distlock.LockOp,
				ent:  nd.Entity,
				name: ddb.EntityName(nd.Entity),
				mode: nd.Mode,
			})
		}
	}
	return s
}

// classOf is the op stream: the class client c runs as its seq-th
// transaction.
func classOf(c, seq, clients, classes int) int {
	return (c + seq*clients) % classes
}

// genClassSets generates a traffic workload's panel.
func genClassSets(w workload, seed int64, n int) ([]*classSet, error) {
	sets := make([]*classSet, n)
	for k := range sets {
		cfg := w.gen
		cfg.Seed = memberSeed(seed, k)
		sys, err := distlock.GenerateWorkload(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: generate member %d: %w", w.name, k, err)
		}
		sets[k] = newClassSet(sys.DDB, sys.Txns)
	}
	return sets, nil
}

// churnTrace is one generated admission input.
type churnTrace struct {
	ddb    *distlock.DDB
	events []distlock.ChurnEvent
}

// genTraces generates a churn workload's panel.
func genTraces(w workload, seed int64, n, events int) ([]*churnTrace, error) {
	traces := make([]*churnTrace, n)
	for k := range traces {
		cfg := w.gen
		cfg.Seed = memberSeed(seed, k)
		ddb, evs, err := distlock.ChurnTrace(cfg, events, w.depart)
		if err != nil {
			return nil, fmt.Errorf("%s: generate member %d: %w", w.name, k, err)
		}
		traces[k] = &churnTrace{ddb: ddb, events: evs}
	}
	return traces, nil
}

// registerTrace is the admission input a traffic class set implies: every
// class arrives, then every class departs. It lets the certification
// ladder price the workload's own classes.
func registerTrace(s *classSet) *churnTrace {
	t := &churnTrace{ddb: s.ddb}
	for _, x := range s.txns {
		t.events = append(t.events, distlock.ChurnEvent{Arrive: true, Txn: x})
	}
	for _, x := range s.txns {
		t.events = append(t.events, distlock.ChurnEvent{Txn: x})
	}
	return t
}
