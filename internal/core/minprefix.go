package core

import (
	"distlock/internal/graph"
	"distlock/internal/model"
)

// PairSafeDFMinimalPrefix is the O(n³) algorithm of Section 5 that precedes
// Theorem 3: it decides whether a pair of distributed transactions is safe
// and deadlock-free by testing, for each common entity y, whether a
// violating pair of linear extensions exists, via the minimal-prefix
// construction:
//
//  1. initialize V1 to the nodes that precede Ly in T1;
//  2. while there is a z ∈ R_T2(Ly) such that V1 contains Lz but not Uz,
//     add Uz and all its predecessors to V1.
//
// A violating extension t1 (one with L_t1(Ly) ∩ R_t2(Ly) = ∅ against the
// minimal t2) exists iff the resulting minimal prefix does not contain Ly.
//
// It must agree with PairSafeDF on every input — including mixed
// shared/exclusive modes, where both algorithms work over the conflicting
// common entities only; the two are validated against each other and
// against the Lemma-1 brute force in tests.
func PairSafeDFMinimalPrefix(t1, t2 *model.Transaction) bool {
	conflicting := model.ConflictingEntities(t1, t2)
	if len(conflicting) == 0 {
		return true
	}
	x, ok := firstCommonLock(t1, t2, conflicting)
	if !ok {
		return false
	}
	for _, y := range conflicting {
		if y == x {
			continue
		}
		if violatingExtensionExists(t1, t2, y) || violatingExtensionExists(t2, t1, y) {
			return false
		}
	}
	return true
}

// firstCommonLock returns the entity x of Theorem 3 condition (1): x ∈ R
// such that for every other y ∈ R, Lx precedes Ly in both transactions.
// Such an x is unique when it exists. It reads the transactions' node
// order, not their shapes, so PairSafeDFMinimalPrefix shares no code with
// PairSafeDF's condition (1).
func firstCommonLock(t1, t2 *model.Transaction, common []model.EntityID) (model.EntityID, bool) {
	for _, x := range common {
		lx1, _ := t1.LockNode(x)
		lx2, _ := t2.LockNode(x)
		ok := true
		for _, y := range common {
			if y == x {
				continue
			}
			ly1, _ := t1.LockNode(y)
			ly2, _ := t2.LockNode(y)
			if !t1.Precedes(lx1, ly1) || !t2.Precedes(lx2, ly2) {
				ok = false
				break
			}
		}
		if ok {
			return x, true
		}
	}
	return 0, false
}

// violatingExtensionExists reports whether there are linear extensions
// t1 ∈ T1, t2 ∈ T2 with L_t1(Ly) ∩ R_t2(Ly) = ∅, using the minimal-prefix
// algorithm. The adversarial t2 is fixed to the extension that executes
// before Ly only the steps preceding Ly in T2, so R_t2(Ly) = R_T2(Ly).
func violatingExtensionExists(t1, t2 *model.Transaction, y model.EntityID) bool {
	ly1, ok1 := t1.LockNode(y)
	ly2, ok2 := t2.LockNode(y)
	if !ok1 || !ok2 {
		return false
	}
	// Z = R_T2(Ly) restricted to entities CONFLICTING between the pair:
	// only a conflicting hold of T1's can force T2's Ly to wait, so only
	// those entities serialize the race to y.
	z := map[model.EntityID]bool{}
	for _, e := range t2.RT(ly2) {
		if model.Conflicts(t1, t2, e) {
			z[e] = true
		}
	}

	// Minimal prefix V1 of T1 satisfying:
	//   (a) V1 ⊇ predecessors of Ly in T1,
	//   (b) for z ∈ Z: Lz ∈ V1 ⟹ Uz ∈ V1.
	v1 := graph.NewBitset(t1.N())
	v1.Or(t1.Preds(ly1))
	for changed := true; changed; {
		changed = false
		for _, e := range t1.Entities() {
			if !z[e] {
				continue
			}
			lz, _ := t1.LockNode(e)
			uz, _ := t1.UnlockNode(e)
			if v1.Has(int(lz)) && !v1.Has(int(uz)) {
				v1.Set(int(uz))
				v1.Or(t1.Preds(uz))
				changed = true
			}
		}
	}
	// A violating t1 exists iff the minimal prefix avoids Ly (property (c)).
	return !v1.Has(int(ly1))
}
