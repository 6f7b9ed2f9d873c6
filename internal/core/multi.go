package core

import (
	"fmt"
	"slices"

	"distlock/internal/graph"
	"distlock/internal/model"
	"distlock/internal/schedule"
)

// MultiViolation witnesses that a transaction system is not safe and
// deadlock-free (Theorem 4): a directed cycle of the interaction graph and
// prefixes of the cycle's transactions satisfying properties (1)–(3) of the
// normal-form theorem. Running any linear extensions of the prefixes
// serially yields a legal partial schedule whose digraph D(S′) is cyclic.
type MultiViolation struct {
	// Pair is set when the violation is already visible at the pair level
	// (Theorem 3 failed for these two transaction indices).
	Pair *[2]int
	// Cycle holds transaction indices in the violating traversal order
	// T1 -> T2 -> ... -> Tk (Tk is the "last transaction").
	Cycle []int
	// Prefixes are the maximal prefixes T1*, ..., Tk* (parallel to Cycle).
	Prefixes []*model.Prefix
	// Xs are the entities x_i with arcs Ti -> Ti+1 labelled x_i.
	Xs []model.EntityID
}

// BuildSchedule produces a concrete illegal-certifying partial schedule:
// a serial execution of the cycle prefixes in order. The result is a legal
// partial schedule of the system whose digraph D(S′) contains a cycle.
func (v *MultiViolation) BuildSchedule() []schedule.Step {
	if v.Pair != nil {
		return nil
	}
	var steps []schedule.Step
	for i, ti := range v.Cycle {
		p := v.Prefixes[i]
		t := p.Txn()
		// Any linear extension of the prefix: repeatedly take an included
		// node whose predecessors are all emitted.
		emitted := make(map[model.NodeID]bool)
		for emittedCount := 0; emittedCount < p.Size(); {
			progress := false
			for id := 0; id < t.N(); id++ {
				nid := model.NodeID(id)
				if !p.Has(nid) || emitted[nid] {
					continue
				}
				ready := true
				for _, u := range t.In(nid) {
					if p.Has(model.NodeID(u)) && !emitted[model.NodeID(u)] {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				emitted[nid] = true
				emittedCount++
				steps = append(steps, schedule.Step{Txn: ti, Node: nid})
				progress = true
			}
			if !progress {
				panic("core: prefix not linearizable")
			}
		}
	}
	return steps
}

// String summarizes the violation.
func (v *MultiViolation) String() string {
	if v.Pair != nil {
		return fmt.Sprintf("pair (%d,%d) fails Theorem 3", v.Pair[0], v.Pair[1])
	}
	return fmt.Sprintf("interaction-graph cycle %v admits normal-form prefixes", v.Cycle)
}

// SystemSafeDF is Theorem 4: it decides whether a transaction system is
// safe and deadlock-free in time polynomial in the number of cycles of its
// interaction graph and the input size.
//
// Phase 1 tests every interacting pair with Theorem 3. Phase 2 walks every
// directed cycle of the interaction graph (each undirected simple cycle, in
// both directions, with every choice of "last" transaction) and attempts
// the maximal-prefix construction; the system fails iff some cycle's
// prefixes all contain their Lx_i step (properties (1)–(3)).
func SystemSafeDF(sys *model.System) (bool, *MultiViolation) {
	n := sys.N()
	// Phase 1: all interacting pairs must pass Theorem 3. Interaction is
	// conflict-aware: two transactions that only ever read their common
	// entities do not interact and need no pair check.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !model.Interacts(sys.Txns[i], sys.Txns[j]) {
				continue
			}
			if rep := PairSafeDF(sys.Txns[i], sys.Txns[j]); !rep.SafeDF {
				p := [2]int{i, j}
				return false, &MultiViolation{Pair: &p}
			}
		}
	}

	// Phase 2: directed cycles of the interaction graph.
	ig := sys.InteractionGraph()
	var viol *MultiViolation
	var cc CycleChecker
	ig.SimpleCycles(0, func(cycle []int) bool {
		if v := cc.CheckCycle(sys.Txns, cycle); v != nil {
			viol = v
			return false
		}
		return true
	})
	if viol != nil {
		return false, viol
	}
	return true, nil
}

// CycleChecker runs Theorem 4's phase-2 test on interaction-graph cycles,
// one at a time. It owns the scratch the edge rows and prefixes of a cycle
// are built in, so a caller checking many cycles (SystemSafeDF, the
// admission service) allocates nothing for a cycle that does not violate.
// The zero value is ready to use; a CycleChecker must not be used by two
// goroutines at once.
//
// The test reads only the shapes (model.Shape) of the transactions on the
// cycle. Positions 0..k-1 below index the cycle as given; edge p joins
// positions p and p+1 (mod k). A traversal reads conflicts only across
// edges. What position p conflicts on with its non-neighbours, far(p), is
// avoided by p's prefix in every traversal, so its removals form a base
// row built once per cycle; a direction in which some position's base row
// already holds that position's Lx step is dead, and none of its k
// traversals is tried.
type CycleChecker struct {
	shapes []*model.Shape
	ew, nw int // words in an entity bitset and a node bitset, the widest on the cycle

	// edge is k entity bitsets: row p holds the entities on which the
	// transactions at positions p and p+1 conflict.
	edge []uint64
	// base is k node bitsets: row p holds the nodes the maximal prefix at p
	// avoiding far(p) lacks, a subset of what every traversal's prefix at p
	// lacks.
	base []uint64
	// acc and exc are entity bitsets: the union of Acc and of Exc over the
	// non-neighbours of the position whose base row is being built.
	acc, exc []uint64
	// xs[p] is the first-locked conflicting common entity of edge p, and
	// lxLo[p], lxHi[p] its Lock node in the transactions at p and p+1.
	xs         []model.EntityID
	lxLo, lxHi []model.NodeID

	ord     []int    // the traversal being tried: positions in order T1..Tk
	avoid   []uint64 // entity bitset: what the prefix under construction avoids beyond far(p)
	removed []uint64 // k node bitsets: row i holds the nodes outside Ti*
}

// CheckCycle runs Theorem 4's phase-2 test on one undirected interaction-
// graph cycle, given as a sequence of indices into txns (at least three; an
// index may repeat when txns lists one transaction once per copy): it
// attempts the normal-form prefix construction on every traversal (both
// directions, every choice of last transaction) and returns a violation if
// one admits prefixes satisfying properties (1)–(3), else nil. The verdict
// depends only on the syntax of the transactions on the cycle, in cyclic
// order. Traversals are tried forward before backward, each direction by
// rotation, and the first that violates is the witness; a dead direction
// is skipped, which cannot change that traversal.
//
// Every transaction on the cycle must already pass Theorem 3 against its
// cycle neighbours (SystemSafeDF's phase 1); callers maintaining a certified
// set incrementally guarantee this by construction.
func (c *CycleChecker) CheckCycle(txns []*model.Transaction, cycle []int) *MultiViolation {
	if !c.load(txns, cycle) {
		return nil
	}
	k := len(cycle)
	for _, backward := range []bool{false, true} {
		if c.dead(backward) {
			continue
		}
		for r := 0; r < k; r++ {
			c.orient(k, r, backward)
			if c.try(backward) {
				return c.violation(txns, cycle, backward)
			}
		}
	}
	return nil
}

// load computes what all 2k traversals of the cycle share: each edge's
// conflict row and first common lock, and each position's base row. It
// reports false if some edge has no first common lock — impossible once
// the edge's pair passed Theorem 3's condition (1), but kept defensive.
func (c *CycleChecker) load(txns []*model.Transaction, cycle []int) bool {
	k := len(cycle)
	c.shapes = c.shapes[:0]
	c.ew, c.nw = 0, 0
	for _, ti := range cycle {
		sh := txns[ti].Shape()
		c.shapes = append(c.shapes, sh)
		c.ew = max(c.ew, len(sh.Acc))
		c.nw = max(c.nw, sh.NodeWords)
	}
	c.edge = grow(c.edge, k*c.ew)
	c.base = grow(c.base, k*c.nw)
	c.acc = grow(c.acc, c.ew)
	c.exc = grow(c.exc, c.ew)
	c.avoid = grow(c.avoid, c.ew)
	c.removed = grow(c.removed, k*c.nw)
	c.xs = grow(c.xs, k)
	c.lxLo = grow(c.lxLo, k)
	c.lxHi = grow(c.lxHi, k)
	c.ord = grow(c.ord, k)

	for p, a := range c.shapes {
		b := c.shapes[(p+1)%k]
		x := FirstLock(a, b)
		if x < 0 {
			return false
		}
		c.xs[p] = x
		c.lxLo[p] = a.Lock[a.Index(x)]
		c.lxHi[p] = b.Lock[b.Index(x)]
		row := c.edgeRow(p)
		for w := range row {
			row[w] = a.ConflictWord(b, w)
		}
	}

	for p, a := range c.shapes {
		// far(p) = Acc_p ∩ ⋃Exc_q ∪ Exc_p ∩ ⋃Acc_q over the non-neighbours
		// q: ∩ distributes over ∪, so this is the union of p's conflicts
		// with each of them. A triangle has none.
		clear(c.acc)
		clear(c.exc)
		for d := 2; d < k-1; d++ {
			q := c.shapes[(p+d)%k]
			for w, m := range q.Acc {
				c.acc[w] |= m
				c.exc[w] |= q.Exc[w]
			}
		}
		base := c.baseRow(p)
		clear(base)
		for l, e := range a.Entities {
			if hasBit(c.exc, int(e)) || hasBit(a.Exc, int(e)) && hasBit(c.acc, int(e)) {
				for w, m := range a.Removal(l) {
					base[w] |= m
				}
			}
		}
	}
	return true
}

// dead reports whether every traversal in the given direction fails: some
// position's base row already removes the Lx step property (3) needs of
// it, and its prefix lacks that node in every traversal.
func (c *CycleChecker) dead(backward bool) bool {
	k := len(c.shapes)
	for p := range k {
		lx := c.lxLo[p]
		if backward {
			lx = c.lxHi[(p+k-1)%k]
		}
		if hasBit(c.baseRow(p), int(lx)) {
			return true
		}
	}
	return false
}

// FarKills reports whether the transaction with shape a loses its Lock
// step on entity x once its prefix avoids what it conflicts on with the
// transaction with shape b: whether one of those entities is x or is
// locked before x in a. With b a non-neighbour of a on a cycle and x the
// first common lock of a's edge on one side, that kills every traversal
// of the cycle in that direction: dead's test, one non-neighbour at a
// time, so it applies to a cycle known only in part. A negative x kills
// nothing.
func FarKills(a, b *model.Shape, x model.EntityID) bool {
	if x < 0 {
		return false
	}
	l := a.Index(x)
	if l < 0 {
		return false
	}
	before := a.RT(l)
	xw := int(x) / 64
	for w := range min(len(a.Acc), len(b.Acc)) {
		m := before[w]
		if w == xw {
			m |= 1 << (uint(x) % 64)
		}
		if a.ConflictWord(b, w)&m != 0 {
			return true
		}
	}
	return false
}

// edgeRow returns the entities on which positions p and p+1 conflict.
func (c *CycleChecker) edgeRow(p int) []uint64 {
	return c.edge[p*c.ew : (p+1)*c.ew]
}

// baseRow returns the nodes the prefix at position p lacks in every
// traversal: the removals of far(p).
func (c *CycleChecker) baseRow(p int) []uint64 {
	return c.base[p*c.nw : (p+1)*c.nw]
}

// prefixComplement returns the nodes outside the i-th prefix of the
// traversal being tried.
func (c *CycleChecker) prefixComplement(i int) []uint64 {
	return c.removed[i*c.nw : (i+1)*c.nw]
}

// orient sets c.ord to one of the 2k traversals of a k-cycle: rotation r of
// the cycle as given, or of its reverse. Each fixes a different transaction
// as the last one, in one of the two directions.
func (c *CycleChecker) orient(k, r int, backward bool) {
	for i := range c.ord {
		p := (r + i) % k
		if backward {
			p = k - 1 - p
		}
		c.ord[i] = p
	}
}

// try attempts the normal-form prefix construction on the traversal
// T1 -> ... -> Tk in c.ord (Tk last), leaving the complements of the
// prefixes it built in c.removed. It reports whether prefixes satisfying
// properties (1)–(3) exist, giving up at the first prefix that lacks its
// Lx_i step: property (3) needs every one of them.
func (c *CycleChecker) try(backward bool) bool {
	k := len(c.ord)
	for i, p := range c.ord {
		sh := c.shapes[p]
		// The edge to p's predecessor in the traversal: Tk for T1, T(i-1)
		// for Ti.
		in := c.edgeRow((p + k - 1) % k)
		if backward {
			in = c.edgeRow(p)
		}

		// Ti must avoid exactly those of its entities whose access CONFLICTS
		// with a transaction of the cycle other than its neighbours (far(p),
		// the same for every traversal, whose removals are p's base row). An
		// entity two transactions both merely read neither blocks the serial
		// replay nor adds a D-arc, so the prefixes may keep it — leaving it
		// out of the avoid set is what makes the construction complete on
		// R/W systems (treating shared access as interaction would shrink
		// the prefixes below maximal and miss violations that need the
		// shared steps executed).
		//
		// T1 has no predecessor to skip: it avoids ALL of Tk's conflicting
		// entities, which is load-bearing. It is what keeps the serial replay
		// T1*;...;Tk* legal around the wrap (Tk* may use entities of T1
		// freely because T1* never touched a conflicting one) and what forces
		// the closing D-arc Tk -> T1 (T1 needs x_k only beyond its prefix).
		avoid := in
		if i > 0 {
			// Ti for i = 2..k avoids only what its predecessor's prefix still
			// HOLDS in a conflicting mode — Y(T*_{i-1}) filtered to
			// conflicts. Entities the predecessor's prefix has already
			// released are fair game: the serial replay stays legal and their
			// reuse only adds D-arcs in the cycle's own direction (T_{i-1}
			// used x before Ti — the unsafe-but-deadlock-free violations live
			// exactly here).
			avoid = c.avoid
			clear(avoid)
			ps, outside := c.shapes[c.ord[i-1]], c.prefixComplement(i-1)
			for l, y := range ps.Entities {
				if hasBit(in, int(y)) && hasBit(outside, int(ps.Unlock[l])) {
					avoid[y/64] |= 1 << (uint(y) % 64)
				}
			}
		}

		// Ti*: the maximal prefix avoiding them.
		outside := c.prefixComplement(i)
		copy(outside, c.baseRow(p))
		for l, e := range sh.Entities {
			if hasBit(avoid, int(e)) {
				for w, m := range sh.Removal(l) {
					outside[w] |= m
				}
			}
		}

		// Property (3): the prefix contains its Lx_i step, x_i labelling the
		// arc Ti -> Ti+1.
		lx := c.lxLo[p]
		if backward {
			lx = c.lxHi[c.ord[(i+1)%k]]
		}
		if hasBit(outside, int(lx)) {
			return false
		}
	}
	return true
}

// violation materialises the witness of the traversal try just accepted.
func (c *CycleChecker) violation(txns []*model.Transaction, cycle []int, backward bool) *MultiViolation {
	k := len(c.ord)
	v := &MultiViolation{
		Cycle:    make([]int, k),
		Prefixes: make([]*model.Prefix, k),
		Xs:       make([]model.EntityID, k),
	}
	for i, p := range c.ord {
		t := txns[cycle[p]]
		outside := c.prefixComplement(i)
		nodes := graph.NewBitset(t.N())
		for id := 0; id < t.N(); id++ {
			if !hasBit(outside, id) {
				nodes.Set(id)
			}
		}
		edge := p
		if backward {
			edge = c.ord[(i+1)%k]
		}
		v.Cycle[i] = cycle[p]
		v.Prefixes[i] = model.MustPrefix(t, nodes)
		v.Xs[i] = c.xs[edge]
	}
	return v
}

func hasBit(words []uint64, i int) bool { return words[i/64]&(1<<(uint(i)%64)) != 0 }

// grow returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
