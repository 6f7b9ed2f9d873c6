package model

import (
	"fmt"
	"sort"

	"distlock/internal/graph"
)

// OpKind distinguishes Lock from Unlock operations.
type OpKind uint8

const (
	// LockOp is the "Lx" instruction: acquire the lock on entity x.
	LockOp OpKind = iota
	// UnlockOp is the "Ux" instruction: release the lock on entity x.
	UnlockOp
)

// String returns "L" or "U".
func (k OpKind) String() string {
	if k == LockOp {
		return "L"
	}
	return "U"
}

// Mode is the access mode of a Lock step. The paper's Theorems 3–5 treat
// every lock as exclusive; the generalized tests distinguish shared (read)
// from exclusive (write) locks, with the classical conflict relation: two
// accesses to one entity conflict unless both are shared.
type Mode uint8

const (
	// Exclusive is the write mode: the lock excludes every other holder.
	// It is the zero value, so all pre-mode code paths (and the paper's
	// original model) are the all-exclusive special case.
	Exclusive Mode = iota
	// Shared is the read mode: any number of shared holders may hold the
	// entity concurrently; only an exclusive access conflicts with it.
	Shared
)

// String returns "X" or "S".
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ConflictsWith reports whether two accesses with these modes conflict:
// R/W and W/W conflict, R/R does not.
func (m Mode) ConflictsWith(o Mode) bool { return m == Exclusive || o == Exclusive }

// NodeID identifies an operation node within a single transaction.
type NodeID int

// Node is one operation of a locked transaction. Mode is meaningful for
// LockOp nodes only (an Unlock releases whatever mode was acquired).
type Node struct {
	Kind   OpKind
	Entity EntityID
	Mode   Mode
}

// opString renders the operation kind with its mode: "L" (exclusive lock),
// "S" (shared lock), or "U" (unlock).
func (n Node) opString() string {
	if n.Kind == LockOp && n.Mode == Shared {
		return "S"
	}
	return n.Kind.String()
}

// Builder incrementally constructs a locked transaction. Obtain one from
// NewBuilder, add Lock/Unlock nodes and precedence arcs, then call Freeze.
type Builder struct {
	ddb    *DDB
	name   string
	nodes  []Node
	arcs   [][2]NodeID
	frozen bool
}

// NewBuilder starts a transaction named name over the given database.
func NewBuilder(ddb *DDB, name string) *Builder {
	return &Builder{ddb: ddb, name: name}
}

// Lock appends an exclusive (write) Lock node for the named entity and
// returns its ID. The entity must already exist in the DDB.
func (b *Builder) Lock(entity string) NodeID { return b.add(LockOp, entity, Exclusive) }

// LockShared appends a shared (read) Lock node for the named entity and
// returns its ID.
func (b *Builder) LockShared(entity string) NodeID { return b.add(LockOp, entity, Shared) }

// LockMode appends a Lock node in the given mode.
func (b *Builder) LockMode(entity string, m Mode) NodeID { return b.add(LockOp, entity, m) }

// Unlock appends an Unlock node for the named entity and returns its ID.
func (b *Builder) Unlock(entity string) NodeID { return b.add(UnlockOp, entity, Exclusive) }

func (b *Builder) add(kind OpKind, entity string, m Mode) NodeID {
	if b.frozen {
		panic("model: builder used after Freeze")
	}
	e, ok := b.ddb.Entity(entity)
	if !ok {
		panic(fmt.Sprintf("model: unknown entity %q in transaction %s", entity, b.name))
	}
	if kind == UnlockOp {
		m = Exclusive // an Unlock has no mode of its own
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: kind, Entity: e, Mode: m})
	return id
}

// Arc adds the precedence constraint a -> b ("a happens before b").
func (b *Builder) Arc(a, bn NodeID) *Builder {
	if b.frozen {
		panic("model: builder used after Freeze")
	}
	b.arcs = append(b.arcs, [2]NodeID{a, bn})
	return b
}

// Chain adds arcs n0->n1->...->nk.
func (b *Builder) Chain(ns ...NodeID) *Builder {
	for i := 0; i+1 < len(ns); i++ {
		b.Arc(ns[i], ns[i+1])
	}
	return b
}

// LockUnlock appends a Lock node and an Unlock node for the entity with the
// arc between them, returning both IDs. Convenience for the common pattern.
func (b *Builder) LockUnlock(entity string) (lock, unlock NodeID) {
	l := b.Lock(entity)
	u := b.Unlock(entity)
	b.Arc(l, u)
	return l, u
}

// Freeze validates the transaction and returns the immutable form. The
// validation rules come straight from Section 2 of the paper:
//
//  1. for each accessed entity x there is exactly one Lx node and exactly
//     one Ux node, and Lx precedes Ux;
//  2. the precedence relation is a partial order (the arc set is acyclic);
//  3. nodes whose entities reside at the same site are totally ordered.
//
// The arc Lx -> Ux is added automatically if absent.
func (b *Builder) Freeze() (*Transaction, error) {
	if b.frozen {
		return nil, fmt.Errorf("model: transaction %s already frozen", b.name)
	}
	n := len(b.nodes)
	lockOf := make(map[EntityID]NodeID)
	unlockOf := make(map[EntityID]NodeID)
	for id, nd := range b.nodes {
		switch nd.Kind {
		case LockOp:
			if prev, dup := lockOf[nd.Entity]; dup {
				return nil, fmt.Errorf("model: %s: duplicate Lock on %s (nodes %d and %d)",
					b.name, b.ddb.EntityName(nd.Entity), prev, id)
			}
			lockOf[nd.Entity] = NodeID(id)
		case UnlockOp:
			if prev, dup := unlockOf[nd.Entity]; dup {
				return nil, fmt.Errorf("model: %s: duplicate Unlock on %s (nodes %d and %d)",
					b.name, b.ddb.EntityName(nd.Entity), prev, id)
			}
			unlockOf[nd.Entity] = NodeID(id)
		}
	}
	for e, l := range lockOf {
		if _, ok := unlockOf[e]; !ok {
			return nil, fmt.Errorf("model: %s: entity %s locked (node %d) but never unlocked",
				b.name, b.ddb.EntityName(e), l)
		}
	}
	for e, u := range unlockOf {
		if _, ok := lockOf[e]; !ok {
			return nil, fmt.Errorf("model: %s: entity %s unlocked (node %d) but never locked",
				b.name, b.ddb.EntityName(e), u)
		}
	}

	g := graph.NewDigraph(n)
	for _, a := range b.arcs {
		if a[0] < 0 || int(a[0]) >= n || a[1] < 0 || int(a[1]) >= n {
			return nil, fmt.Errorf("model: %s: arc %v references unknown node", b.name, a)
		}
		if a[0] == a[1] {
			return nil, fmt.Errorf("model: %s: self-loop on node %d", b.name, a[0])
		}
		g.AddArc(int(a[0]), int(a[1]))
	}
	for e, l := range lockOf {
		g.AddArc(int(l), int(unlockOf[e]))
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("model: %s: precedence relation is cyclic: %v", b.name, g.FindCycle())
	}

	succ := g.TransitiveClosure()
	pred := make([]*graph.Bitset, n)
	for i := range pred {
		pred[i] = graph.NewBitset(n)
	}
	for u := 0; u < n; u++ {
		succ[u].ForEach(func(v int) bool {
			pred[v].Set(u)
			return true
		})
	}

	// Lx must precede Ux: guaranteed by the auto-arc plus acyclicity.

	// Same-site nodes must be totally ordered.
	bySite := map[SiteID][]NodeID{}
	for id, nd := range b.nodes {
		s := b.ddb.SiteOf(nd.Entity)
		bySite[s] = append(bySite[s], NodeID(id))
	}
	for s, ids := range bySite {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, c := int(ids[i]), int(ids[j])
				if !succ[a].Has(c) && !succ[c].Has(a) {
					return nil, fmt.Errorf("model: %s: nodes %d and %d both at site %s but unordered",
						b.name, a, c, b.ddb.SiteName(s))
				}
			}
		}
	}

	ents := make([]EntityID, 0, len(lockOf))
	for e := range lockOf {
		ents = append(ents, e)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })

	topo, _ := g.TopoSort()

	b.frozen = true
	t := &Transaction{
		name:     b.name,
		ddb:      b.ddb,
		nodes:    append([]Node(nil), b.nodes...),
		g:        g,
		succ:     succ,
		pred:     pred,
		lockOf:   lockOf,
		unlockOf: unlockOf,
		entities: ents,
		topo:     topo,
	}
	t.shape = newShape(t)
	return t, nil
}

// MustFreeze is Freeze that panics on error.
func (b *Builder) MustFreeze() *Transaction {
	t, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return t
}

// Transaction is an immutable locked transaction: a partial order of
// Lock/Unlock nodes, given in transitively closed form (as Theorems 3 and 4
// assume). Construct via Builder.Freeze.
type Transaction struct {
	name     string
	ddb      *DDB
	nodes    []Node
	g        *graph.Digraph
	succ     []*graph.Bitset // strict successors (transitive closure)
	pred     []*graph.Bitset // strict predecessors
	lockOf   map[EntityID]NodeID
	unlockOf map[EntityID]NodeID
	entities []EntityID // sorted
	topo     []int      // a topological order of the nodes
	shape    Shape
}

// topoOrder returns a topological order of the nodes. Must not be modified.
func (t *Transaction) topoOrder() []int { return t.topo }

// Order returns a linear extension of the partial order: a sequence of all
// nodes in which every node appears after its predecessors. Clients driving
// a transaction step-by-step (e.g. through a runtime session) may execute
// operations in this order. The returned slice is fresh on every call.
func (t *Transaction) Order() []NodeID {
	out := make([]NodeID, len(t.topo))
	for i, id := range t.topo {
		out[i] = NodeID(id)
	}
	return out
}

// Shape returns the transaction's dense form. Must not be modified.
func (t *Transaction) Shape() *Shape { return &t.shape }

// Name returns the transaction's name.
func (t *Transaction) Name() string { return t.name }

// DDB returns the database the transaction is defined over.
func (t *Transaction) DDB() *DDB { return t.ddb }

// N returns the number of operation nodes.
func (t *Transaction) N() int { return len(t.nodes) }

// Node returns the operation at the given node.
func (t *Transaction) Node(id NodeID) Node {
	t.check(id)
	return t.nodes[id]
}

// Out returns the direct successors of a node in the (non-transitive) arc
// set. The returned slice must not be modified.
func (t *Transaction) Out(id NodeID) []int { t.check(id); return t.g.Out(int(id)) }

// In returns the direct predecessors of a node. Must not be modified.
func (t *Transaction) In(id NodeID) []int { t.check(id); return t.g.In(int(id)) }

// Precedes reports whether a strictly precedes b in the partial order.
func (t *Transaction) Precedes(a, b NodeID) bool {
	t.check(a)
	t.check(b)
	return t.succ[a].Has(int(b))
}

// Preds returns the strict-predecessor bitset of a node. Must not be modified.
func (t *Transaction) Preds(id NodeID) *graph.Bitset { t.check(id); return t.pred[id] }

// Succs returns the strict-successor bitset of a node. Must not be modified.
func (t *Transaction) Succs(id NodeID) *graph.Bitset { t.check(id); return t.succ[id] }

// Entities returns the entities the transaction accesses, sorted by ID.
// This is the set R(T) of the paper. Must not be modified.
func (t *Transaction) Entities() []EntityID { return t.entities }

// Accesses reports whether the transaction has nodes on entity e.
func (t *Transaction) Accesses(e EntityID) bool {
	_, ok := t.lockOf[e]
	return ok
}

// ModeOf returns the mode in which the transaction locks entity e
// (Exclusive for entities it does not access — harmless, since every
// caller gates on Accesses).
func (t *Transaction) ModeOf(e EntityID) Mode {
	if l, ok := t.lockOf[e]; ok {
		return t.nodes[l].Mode
	}
	return Exclusive
}

// LockNode returns the Lx node for entity e.
func (t *Transaction) LockNode(e EntityID) (NodeID, bool) {
	id, ok := t.lockOf[e]
	return id, ok
}

// UnlockNode returns the Ux node for entity e.
func (t *Transaction) UnlockNode(e EntityID) (NodeID, bool) {
	id, ok := t.unlockOf[e]
	return id, ok
}

// RT returns the paper's R_T(s): the set of entities z such that Lz
// precedes s in T.
func (t *Transaction) RT(s NodeID) []EntityID {
	t.check(s)
	var out []EntityID
	for _, e := range t.entities {
		if t.succ[t.lockOf[e]].Has(int(s)) {
			out = append(out, e)
		}
	}
	return out
}

// LT returns the paper's L_T(s): entities that are locked but not yet
// unlocked right before step s in a linear extension that schedules after s
// only the steps that succeed s in T. Formally, z ∈ L_T(s) iff s ≼ Uz and
// not s ≼ Lz, with ≼ the reflexive partial order: z's Lock executed before
// s (it is neither s itself nor a successor of s) while z's Unlock did not.
func (t *Transaction) LT(s NodeID) []EntityID {
	t.check(s)
	var out []EntityID
	for _, e := range t.entities {
		u := t.unlockOf[e]
		l := t.lockOf[e]
		uAfter := u == s || t.succ[s].Has(int(u))
		lAfter := l == s || t.succ[s].Has(int(l))
		if uAfter && !lAfter {
			out = append(out, e)
		}
	}
	return out
}

// MinimalNodes returns the nodes with no predecessors among the nodes NOT
// in the given executed set; i.e., the candidates for execution next after
// the prefix "executed". executed must be sized t.N().
func (t *Transaction) MinimalNodes(executed *graph.Bitset) []NodeID {
	var out []NodeID
	for id := 0; id < t.N(); id++ {
		if executed.Has(id) {
			continue
		}
		ok := true
		for _, p := range t.g.In(id) {
			if !executed.Has(p) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// String renders the transaction compactly for debugging: nodes with their
// labels and the (non-transitive) arc list.
func (t *Transaction) String() string {
	s := t.name + "{"
	for id, nd := range t.nodes {
		if id > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%s%s", id, nd.opString(), t.ddb.EntityName(nd.Entity))
	}
	s += " |"
	for u := 0; u < t.N(); u++ {
		for _, v := range t.g.Out(u) {
			s += fmt.Sprintf(" %d->%d", u, v)
		}
	}
	return s + "}"
}

// Label returns a human-readable label such as "Lx" (exclusive lock),
// "Sx" (shared lock), or "Ux" for a node.
func (t *Transaction) Label(id NodeID) string {
	nd := t.Node(id)
	return nd.opString() + t.ddb.EntityName(nd.Entity)
}

func (t *Transaction) check(id NodeID) {
	if id < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("model: node %d out of range in %s", id, t.name))
	}
}

// CommonEntities returns R(T1) ∩ R(T2), sorted by entity ID.
func CommonEntities(t1, t2 *Transaction) []EntityID {
	var out []EntityID
	i, j := 0, 0
	a, b := t1.entities, t2.entities
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Conflicts reports whether t1 and t2 conflict on entity e: both access it
// and at least one of the accesses is exclusive. Two shared accesses do
// not conflict — they neither block each other nor constrain the
// serialization order.
func Conflicts(t1, t2 *Transaction, e EntityID) bool {
	return t1.Accesses(e) && t2.Accesses(e) && t1.ModeOf(e).ConflictsWith(t2.ModeOf(e))
}

// ConflictingEntities returns the common entities on which t1 and t2
// conflict, sorted by entity ID. In the all-exclusive model this is
// exactly CommonEntities; the conflict-aware static tests (Theorems 3–5
// generalized) interact through this set only.
func ConflictingEntities(t1, t2 *Transaction) []EntityID {
	var out []EntityID
	for _, e := range CommonEntities(t1, t2) {
		if t1.ModeOf(e).ConflictsWith(t2.ModeOf(e)) {
			out = append(out, e)
		}
	}
	return out
}
