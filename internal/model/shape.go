package model

// Shape is a transaction's syntax in the dense form the Theorem 4 cycle
// check runs on, derived once at Freeze so that checking a cycle needs no
// map, no slice of entities and no fresh bitset. Entities are addressed by
// local index (their position in the sorted entity list); entity sets are
// bitsets over EntityID and node sets bitsets over NodeID, both as plain
// words (bit i of word i/64), as many words as the transaction needs. A
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
}

// Removal returns the nodes a prefix loses by avoiding the entity with
// local index l: its Lock node and every successor of it. A maximal prefix
// avoiding a set of entities is the complement of the union of their
// removals (Section 5). Must not be modified.
func (s *Shape) Removal(l int) []uint64 {
	return s.removal[l*s.NodeWords : (l+1)*s.NodeWords]
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
	s := Shape{
		Entities:  t.entities,
		Lock:      make([]NodeID, len(t.entities)),
		Unlock:    make([]NodeID, len(t.entities)),
		NodeWords: (len(t.nodes) + 63) / 64,
	}
	if n := len(t.entities); n > 0 {
		words := int(t.entities[n-1])/64 + 1
		s.Acc = make([]uint64, words)
		s.Exc = make([]uint64, words)
	}
	s.removal = make([]uint64, len(t.entities)*s.NodeWords)
	for l, e := range t.entities {
		lock := t.lockOf[e]
		s.Lock[l], s.Unlock[l] = lock, t.unlockOf[e]
		s.Acc[e/64] |= 1 << (uint(e) % 64)
		if t.nodes[lock].Mode == Exclusive {
			s.Exc[e/64] |= 1 << (uint(e) % 64)
		}
		row := s.Removal(l)
		row[lock/64] |= 1 << (uint(lock) % 64)
		t.succ[lock].ForEach(func(v int) bool {
			row[v/64] |= 1 << (uint(v) % 64)
			return true
		})
	}
	return s
}

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
