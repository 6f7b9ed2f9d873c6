package model

import (
	"fmt"
	"testing"
)

// TestShapeMatchesTransaction checks a shape against the accessors it
// condenses, on a transaction whose entity IDs and node count both pass 64.
func TestShapeMatchesTransaction(t *testing.T) {
	d := NewDDB()
	for i := 0; i < 100; i++ {
		d.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%4))
	}
	b := NewBuilder(d, "T")
	var prev NodeID = -1
	chain := func(id NodeID) {
		if prev >= 0 {
			b.Arc(prev, id)
		}
		prev = id
	}
	for i := 30; i < 100; i += 2 { // 35 entities, 70 nodes
		name := fmt.Sprintf("e%d", i)
		if i%3 == 0 {
			chain(b.LockShared(name))
		} else {
			chain(b.Lock(name))
		}
		if i >= 40 {
			chain(b.Unlock(fmt.Sprintf("e%d", i-10))) // hold a sliding window of five
		}
	}
	for i := 90; i < 100; i += 2 {
		chain(b.Unlock(fmt.Sprintf("e%d", i)))
	}
	tx := b.MustFreeze()
	sh := tx.Shape()
	if sh.NodeWords != 2 || len(sh.Acc) != 2 || len(sh.Exc) != 2 {
		t.Fatalf("want 2-word bitsets, got %d node words, %d/%d entity words", sh.NodeWords, len(sh.Acc), len(sh.Exc))
	}
	has := func(words []uint64, i int) bool { return words[i/64]&(1<<(uint(i)%64)) != 0 }
	for e := EntityID(0); int(e) < d.NumEntities(); e++ {
		if int(e)/64 >= len(sh.Acc) {
			continue
		}
		if got := has(sh.Acc, int(e)); got != tx.Accesses(e) {
			t.Fatalf("Acc(%d) = %v, Accesses = %v", e, got, tx.Accesses(e))
		}
		if got, want := has(sh.Exc, int(e)), tx.Accesses(e) && tx.ModeOf(e) == Exclusive; got != want {
			t.Fatalf("Exc(%d) = %v, want %v", e, got, want)
		}
	}
	for _, e := range []EntityID{0, 31, 99, 130} {
		if got := sh.Index(e); got != -1 {
			t.Fatalf("Index(%d) of an entity the transaction does not access = %d, want -1", e, got)
		}
	}
	for l, e := range sh.Entities {
		lock, _ := tx.LockNode(e)
		unlock, _ := tx.UnlockNode(e)
		if sh.Lock[l] != lock || sh.Unlock[l] != unlock {
			t.Fatalf("entity %d: shape nodes (%d, %d), transaction (%d, %d)", e, sh.Lock[l], sh.Unlock[l], lock, unlock)
		}
		if got := sh.Index(e); got != l {
			t.Fatalf("Index(%d) = %d, want its sorted position %d", e, got, l)
		}
		// The After, RT and LT rows are Precedes, RT and LT at Lx.
		rt, lt := map[EntityID]bool{}, map[EntityID]bool{}
		for _, z := range tx.RT(lock) {
			rt[z] = true
		}
		for _, z := range tx.LT(lock) {
			lt[z] = true
		}
		for _, z := range sh.Entities {
			lz, _ := tx.LockNode(z)
			if got, want := has(sh.After(l), int(z)), tx.Precedes(lock, lz); got != want {
				t.Fatalf("After(%d) has %d = %v, Precedes = %v", e, z, got, want)
			}
			if got := has(sh.RT(l), int(z)); got != rt[z] {
				t.Fatalf("RT(%d) has %d = %v, Transaction.RT = %v", e, z, got, rt[z])
			}
			if got := has(sh.LT(l), int(z)); got != lt[z] {
				t.Fatalf("LT(%d) has %d = %v, Transaction.LT = %v", e, z, got, lt[z])
			}
		}
		if len(rt) == 0 && len(lt) == 0 && l > 0 {
			t.Fatalf("entity %d: empty RT and LT on a chain", e)
		}
		// Removal(l) is the complement of the maximal prefix avoiding e.
		p := MaximalPrefixAvoiding(tx, func(x EntityID) bool { return x == e })
		for id := 0; id < tx.N(); id++ {
			if has(sh.Removal(l), id) == p.Has(NodeID(id)) {
				t.Fatalf("entity %d node %d: removal and maximal prefix disagree", e, id)
			}
		}
	}
}

// TestInteractsMatchesConflictingEntities: Interacts is the emptiness test
// of ConflictingEntities, across modes and bitsets of different lengths.
func TestInteractsMatchesConflictingEntities(t *testing.T) {
	d := NewDDB()
	for i := 0; i < 130; i++ {
		d.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i))
	}
	one := func(name string, m Mode, ents ...int) *Transaction {
		b := NewBuilder(d, name)
		for _, e := range ents {
			b.Arc(b.LockMode(fmt.Sprintf("e%d", e), m), b.Unlock(fmt.Sprintf("e%d", e)))
		}
		return b.MustFreeze()
	}
	txns := []*Transaction{
		one("r3", Shared, 3), one("w3", Exclusive, 3), one("r3r70", Shared, 3, 70),
		one("w70", Exclusive, 70), one("r129", Shared, 129), one("w5w129", Exclusive, 5, 129),
		one("none", Exclusive),
	}
	for _, a := range txns {
		for _, b := range txns {
			if got, want := Interacts(a, b), len(ConflictingEntities(a, b)) > 0; got != want {
				t.Fatalf("Interacts(%s, %s) = %v, ConflictingEntities = %v", a.Name(), b.Name(), got, ConflictingEntities(a, b))
			}
		}
	}
}
