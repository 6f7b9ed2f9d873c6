package core

import (
	"fmt"
	"math/bits"

	"distlock/internal/model"
)

// PairReport explains the verdict of a pairwise safe-and-deadlock-free test.
type PairReport struct {
	SafeDF bool
	// FirstLock is the entity x of condition (1): the common entity whose
	// Lock precedes the Lock of every other common entity in both
	// transactions. Only meaningful when condition (1) holds.
	FirstLock model.EntityID
	// Reason is a human-readable explanation of a negative verdict.
	Reason string
}

// FirstLock returns the entity x of Theorem 3 condition (1) for the
// transactions with shapes a and b: the conflicting common entity whose
// Lock precedes the Lock of every other conflicting common entity in both
// transactions, or -1 if there is none (no conflicting common entity
// included). Such an x is unique when it exists.
func FirstLock(a, b *model.Shape) model.EntityID {
	ew := min(len(a.Acc), len(b.Acc))
	for w := range ew {
		for m := a.ConflictWord(b, w); m != 0; m &= m - 1 {
			x := model.EntityID(w*64 + bits.TrailingZeros64(m))
			ra, rb := a.After(a.Index(x)), b.After(b.Index(x))
			first := true
			for v := range ew {
				rest := a.ConflictWord(b, v) &^ (ra[v] & rb[v])
				if v == w {
					rest &^= m & -m // x itself
				}
				if rest != 0 {
					first = false
					break
				}
			}
			if first {
				return x
			}
		}
	}
	return -1
}

// meets reports whether the entity sets p and q share an entity on which
// the transactions with shapes a and b conflict.
func meets(p, q []uint64, a, b *model.Shape) bool {
	for w := range min(len(p), len(q)) {
		if p[w]&q[w]&a.ConflictWord(b, w) != 0 {
			return true
		}
	}
	return false
}

// PairSafeDF is Theorem 3, generalized to shared/exclusive lock modes:
// the pair {T1, T2} is safe and deadlock-free iff, over the set
// C = the CONFLICTING common entities (both access, at least one
// exclusively — R/W and W/W conflict, R/R does not),
//
//	(1) there is an entity x ∈ C such that for all other y ∈ C, Lx
//	    precedes Ly in both T1 and T2; and
//	(2) for every y ∈ C, y ≠ x, the sets L_T1(Ly) ∩ R_T2(Ly) and
//	    L_T2(Ly) ∩ R_T1(Ly) both contain a conflicting entity.
//
// With every lock exclusive, C = R(T1) ∩ R(T2) and this is exactly the
// paper's Theorem 3. The generalization is the conflict projection: within
// a pair, a conflicting entity blocks and serializes exactly as an
// exclusive one (the two holds can never overlap), while an entity both
// transactions merely read imposes no cross-transaction constraint at all
// — no blocking, no D-arc — so it must not count as an interaction in
// condition (1) nor as a serialization funnel in condition (2). Validated
// against the exhaustive Lemma-1 oracle on random R/W systems in tests.
//
// It reads only the two shapes (model.Shape), whose per-entity After, RT
// and LT rows make each condition a few word operations per entity of C:
// O(|C|² / 64) words, and no allocation unless the pair fails.
func PairSafeDF(t1, t2 *model.Transaction) PairReport {
	pairEvals.Add(1)
	if !model.Interacts(t1, t2) {
		return PairReport{SafeDF: true, FirstLock: -1,
			Reason: "no conflicting common entities"}
	}
	a, b := t1.Shape(), t2.Shape()
	x := FirstLock(a, b)
	if x < 0 {
		return PairReport{SafeDF: false, FirstLock: -1,
			Reason: "condition (1) fails: no conflicting common entity is locked first in both transactions"}
	}
	for w := range min(len(a.Acc), len(b.Acc)) {
		for m := a.ConflictWord(b, w); m != 0; m &= m - 1 {
			y := model.EntityID(w*64 + bits.TrailingZeros64(m))
			if y == x {
				continue
			}
			i, j := a.Index(y), b.Index(y)
			if !meets(a.LT(i), b.RT(j), a, b) {
				return condition2Failure(t1, x, y, "T1", "T2")
			}
			if !meets(b.LT(j), a.RT(i), a, b) {
				return condition2Failure(t1, x, y, "T2", "T1")
			}
		}
	}
	return PairReport{SafeDF: true, FirstLock: x}
}

// condition2Failure reports condition (2) failing at y: L_l(Ly) ∩ R_r(Ly)
// has no conflicting entity.
func condition2Failure(t1 *model.Transaction, x, y model.EntityID, l, r string) PairReport {
	n := t1.DDB().EntityName(y)
	return PairReport{SafeDF: false, FirstLock: x, Reason: fmt.Sprintf(
		"condition (2) fails at %s: L_%s(L%s) ∩ R_%s(L%s) has no conflicting entity", n, l, n, r, n)}
}
