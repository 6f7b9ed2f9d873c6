package model

import "math/bits"

// Shape is a transaction's syntax in the dense form the static tests run
// on, derived once at Freeze so that Theorem 3 on a pair and Theorem 4 on a
// cycle need no map, no slice of entities and no fresh bitset. Entities are
// addressed by local index (their position in the sorted entity list);
// entity sets are bitsets over EntityID and node sets bitsets over NodeID,
// both as plain words (bit i of word i/64), as many words as the
// transaction needs. Per local index the shape holds the node set avoiding
// the entity removes (Removal) and three entity sets read off its Lock
// node: the entities locked after it (After), R_T (RT) and L_T (LT). A
// Shape is read-only.
type Shape struct {
	// Entities are the accessed entities sorted by ID; an entity's position
	// here is its local index.
	Entities []EntityID
	// Lock and Unlock hold the Lx and Ux node of each local index.
	Lock, Unlock []NodeID
	// Acc and Exc are the entities the transaction accesses and the ones it
	// locks exclusively, as bitsets over EntityID of equal length: just
	// enough words for the largest accessed entity.
	Acc, Exc []uint64
	// NodeWords is the length in words of a bitset over the nodes.
	NodeWords int
	// removal holds one node bitset per local index: {Lx} ∪ succ(Lx).
	removal []uint64
	// after, rt and lt hold one entity bitset of len(Acc) words per local
	// index; see After, RT and LT.
	after, rt, lt []uint64
}

// Removal returns the nodes a prefix loses by avoiding the entity with
// local index l: its Lock node and every successor of it. A maximal prefix
// avoiding a set of entities is the complement of the union of their
// removals (Section 5). Must not be modified.
func (s *Shape) Removal(l int) []uint64 {
	return s.removal[l*s.NodeWords : (l+1)*s.NodeWords]
}

// After returns the entities z with Lx ≺ Lz, x the entity with local index
// l. Must not be modified.
func (s *Shape) After(l int) []uint64 { return s.entityRow(s.after, l) }

// RT returns R_T(Lx), x the entity with local index l: the entities z with
// Lz ≺ Lx (Transaction.RT). Must not be modified.
func (s *Shape) RT(l int) []uint64 { return s.entityRow(s.rt, l) }

// LT returns L_T(Lx), x the entity with local index l: the entities locked
// but not yet unlocked right before Lx (Transaction.LT). Must not be
// modified.
func (s *Shape) LT(l int) []uint64 { return s.entityRow(s.lt, l) }

func (s *Shape) entityRow(rows []uint64, l int) []uint64 {
	w := len(s.Acc)
	return rows[l*w : (l+1)*w]
}

// Index returns the local index of entity e — its rank among the accessed
// entities — or -1 if the transaction does not access e.
func (s *Shape) Index(e EntityID) int {
	w, bit := int(e)/64, uint64(1)<<(uint(e)%64)
	if w >= len(s.Acc) || s.Acc[w]&bit == 0 {
		return -1
	}
	n := bits.OnesCount64(s.Acc[w] & (bit - 1))
	for _, m := range s.Acc[:w] {
		n += bits.OnesCount64(m)
	}
	return n
}

// ConflictWord returns word w of the bitset of entities on which s and o
// conflict: both access them and at least one exclusively. Words beyond
// either shape's bitsets are zero.
func (s *Shape) ConflictWord(o *Shape, w int) uint64 {
	if w >= len(s.Acc) || w >= len(o.Acc) {
		return 0
	}
	return s.Acc[w]&o.Exc[w] | s.Exc[w]&o.Acc[w]
}

// newShape derives the shape of t, whose other fields are already set.
func newShape(t *Transaction) Shape {
	n := len(t.entities)
	s := Shape{
		Entities:  t.entities,
		Lock:      make([]NodeID, n),
		Unlock:    make([]NodeID, n),
		NodeWords: (len(t.nodes) + 63) / 64,
	}
	words := 0
	if n > 0 {
		words = int(t.entities[n-1])/64 + 1
	}
	s.Acc = make([]uint64, words)
	s.Exc = make([]uint64, words)
	s.removal = make([]uint64, n*s.NodeWords)
	s.after = make([]uint64, n*words)
	s.rt = make([]uint64, n*words)
	s.lt = make([]uint64, n*words)
	for l, e := range t.entities {
		lock := t.lockOf[e]
		s.Lock[l], s.Unlock[l] = lock, t.unlockOf[e]
		setBit(s.Acc, int(e))
		if t.nodes[lock].Mode == Exclusive {
			setBit(s.Exc, int(e))
		}
		row := s.Removal(l)
		setBit(row, int(lock))
		t.succ[lock].ForEach(func(v int) bool {
			setBit(row, v)
			return true
		})
	}
	for l := range t.entities {
		lx := s.Lock[l]
		after, rt, lt := s.After(l), s.RT(l), s.LT(l)
		for m, z := range t.entities {
			lz, uz := s.Lock[m], s.Unlock[m]
			if t.succ[lx].Has(int(lz)) {
				setBit(after, int(z))
			}
			if t.succ[lz].Has(int(lx)) {
				setBit(rt, int(z))
			}
			// As Transaction.LT: Lx ≼ Uz and not Lx ≼ Lz.
			if (uz == lx || t.succ[lx].Has(int(uz))) && !(lz == lx || t.succ[lx].Has(int(lz))) {
				setBit(lt, int(z))
			}
		}
	}
	return s
}

func setBit(words []uint64, i int) { words[i/64] |= 1 << (uint(i) % 64) }

// Interacts reports whether t1 and t2 conflict on some common entity — an
// edge of the interaction graph. It is len(ConflictingEntities(t1, t2)) > 0
// without building the list.
func Interacts(t1, t2 *Transaction) bool {
	for w := range t1.shape.Acc {
		if t1.shape.ConflictWord(&t2.shape, w) != 0 {
			return true
		}
	}
	return false
}
