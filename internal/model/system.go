package model

import (
	"fmt"

	"distlock/internal/graph"
)

// System is a transaction system: a finite set of locked transactions over
// one distributed database.
type System struct {
	DDB  *DDB
	Txns []*Transaction
}

// NewSystem bundles transactions into a system, verifying they share ddb.
func NewSystem(ddb *DDB, txns ...*Transaction) (*System, error) {
	for _, t := range txns {
		if t.DDB() != ddb {
			return nil, fmt.Errorf("model: transaction %s built over a different DDB", t.Name())
		}
	}
	return &System{DDB: ddb, Txns: txns}, nil
}

// MustSystem is NewSystem that panics on error.
func MustSystem(ddb *DDB, txns ...*Transaction) *System {
	s, err := NewSystem(ddb, txns...)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the number of transactions.
func (s *System) N() int { return len(s.Txns) }

// TotalNodes returns the total operation count across all transactions.
func (s *System) TotalNodes() int {
	n := 0
	for _, t := range s.Txns {
		n += t.N()
	}
	return n
}

// InteractionGraph returns the paper's G(A), made conflict-aware: an
// undirected graph with the transactions as nodes and an edge between any
// two transactions that CONFLICT on a common entity (R/W or W/W — two
// transactions that only ever read their shared entities neither block
// each other nor constrain serialization, so they do not interact). In
// the all-exclusive model this is exactly the paper's common-entity graph.
func (s *System) InteractionGraph() *graph.Ugraph {
	g := graph.NewUgraph(len(s.Txns))
	for i := range s.Txns {
		for j := i + 1; j < len(s.Txns); j++ {
			if Interacts(s.Txns[i], s.Txns[j]) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Copies builds a system of d copies of transaction t (named t.Name()#k).
// Each copy is a fresh Transaction with identical syntax.
func Copies(t *Transaction, d int) (*System, error) {
	if d < 1 {
		return nil, fmt.Errorf("model: need at least one copy, got %d", d)
	}
	txns := make([]*Transaction, d)
	for k := 0; k < d; k++ {
		b := NewBuilder(t.DDB(), fmt.Sprintf("%s#%d", t.Name(), k+1))
		for id := 0; id < t.N(); id++ {
			nd := t.Node(NodeID(id))
			ename := t.DDB().EntityName(nd.Entity)
			if nd.Kind == LockOp {
				b.LockMode(ename, nd.Mode)
			} else {
				b.Unlock(ename)
			}
		}
		for u := 0; u < t.N(); u++ {
			for _, v := range t.Out(NodeID(u)) {
				b.Arc(NodeID(u), NodeID(v))
			}
		}
		c, err := b.Freeze()
		if err != nil {
			return nil, fmt.Errorf("model: copying %s: %w", t.Name(), err)
		}
		txns[k] = c
	}
	return &System{DDB: t.DDB(), Txns: txns}, nil
}

// MustCopies is Copies that panics on error.
func MustCopies(t *Transaction, d int) *System {
	s, err := Copies(t, d)
	if err != nil {
		panic(err)
	}
	return s
}
