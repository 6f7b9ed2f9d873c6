package core

import (
	"fmt"

	"distlock/internal/model"
)

// The map-and-slice Theorem 3 test PairSafeDF replaced, kept verbatim (but
// for the process-wide evaluation counter) as the reference
// TestPairSafeDFAgreesWithReference compares it against. Its condition (1)
// is firstCommonLock, which PairSafeDFMinimalPrefix still uses.

// intersectsIn reports whether a and b share an element that the filter
// set admits (nil filter admits everything).
func intersectsIn(a, b []model.EntityID, filter map[model.EntityID]bool) bool {
	set := make(map[model.EntityID]bool, len(a))
	for _, e := range a {
		if filter == nil || filter[e] {
			set[e] = true
		}
	}
	for _, e := range b {
		if set[e] {
			return true
		}
	}
	return false
}

// refPairSafeDF is the old PairSafeDF.
func refPairSafeDF(t1, t2 *model.Transaction) PairReport {
	conflicting := model.ConflictingEntities(t1, t2)
	if len(conflicting) == 0 {
		return PairReport{SafeDF: true, FirstLock: -1,
			Reason: "no conflicting common entities"}
	}
	conflictSet := make(map[model.EntityID]bool, len(conflicting))
	for _, e := range conflicting {
		conflictSet[e] = true
	}
	x, ok := firstCommonLock(t1, t2, conflicting)
	if !ok {
		return PairReport{SafeDF: false, FirstLock: -1,
			Reason: "condition (1) fails: no conflicting common entity is locked first in both transactions"}
	}
	for _, y := range conflicting {
		if y == x {
			continue
		}
		ly1, _ := t1.LockNode(y)
		ly2, _ := t2.LockNode(y)
		if !intersectsIn(t1.LT(ly1), t2.RT(ly2), conflictSet) {
			return PairReport{SafeDF: false, FirstLock: x, Reason: fmt.Sprintf(
				"condition (2) fails at %s: L_T1(L%s) ∩ R_T2(L%s) has no conflicting entity",
				t1.DDB().EntityName(y), t1.DDB().EntityName(y), t1.DDB().EntityName(y))}
		}
		if !intersectsIn(t2.LT(ly2), t1.RT(ly1), conflictSet) {
			return PairReport{SafeDF: false, FirstLock: x, Reason: fmt.Sprintf(
				"condition (2) fails at %s: L_T2(L%s) ∩ R_T1(L%s) has no conflicting entity",
				t1.DDB().EntityName(y), t1.DDB().EntityName(y), t1.DDB().EntityName(y))}
		}
	}
	return PairReport{SafeDF: true, FirstLock: x}
}
