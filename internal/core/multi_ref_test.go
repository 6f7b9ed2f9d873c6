package core

import "distlock/internal/model"

// The map-and-slice cycle check CycleChecker replaced, kept verbatim as the
// reference TestCheckCycleAgreesWithReference compares it against.

// refCheckCycle is the old CheckCycle.
func refCheckCycle(sys *model.System, cycle []int) *MultiViolation {
	for _, oriented := range orientations(cycle) {
		if v := tryCycle(sys, oriented); v != nil {
			return v
		}
	}
	return nil
}

// orientations returns every rotation of the cycle in both directions:
// 2k traversals, each fixing a different transaction as the last one.
func orientations(cycle []int) [][]int {
	k := len(cycle)
	out := make([][]int, 0, 2*k)
	rev := make([]int, k)
	for i, v := range cycle {
		rev[k-1-i] = v
	}
	for _, base := range [][]int{cycle, rev} {
		for r := 0; r < k; r++ {
			rot := make([]int, k)
			for i := 0; i < k; i++ {
				rot[i] = base[(r+i)%k]
			}
			out = append(out, rot)
		}
	}
	return out
}

// tryCycle attempts the normal-form prefix construction on the oriented
// cycle T1 -> ... -> Tk (Tk last). It returns a violation if prefixes
// satisfying properties (1)–(3) exist, else nil.
func tryCycle(sys *model.System, cyc []int) *MultiViolation {
	k := len(cyc)
	txn := func(i int) *model.Transaction { return sys.Txns[cyc[mod(i, k)]] }

	// x_i: the first-locked CONFLICTING common entity of (Ti, Ti+1); exists
	// and is unique because every interacting pair passed the generalized
	// Theorem 3's condition (1).
	xs := make([]model.EntityID, k)
	for i := 0; i < k; i++ {
		conflicting := model.ConflictingEntities(txn(i), txn(i+1))
		x, ok := firstCommonLock(txn(i), txn(i+1), conflicting)
		if !ok {
			// Cannot happen after phase 1, but keep the check defensive.
			return nil
		}
		xs[i] = x
	}

	// conflictsWithOthers(i, skip...) = the entities Ti must avoid w.r.t.
	// every Tj not in the skip set: exactly those of Ti's entities whose
	// access CONFLICTS with some such Tj's access. An entity Ti and Tj both
	// merely read neither blocks the serial replay nor adds a D-arc, so the
	// prefixes may keep it — filtering it out of the avoid set is what
	// makes the construction complete on R/W systems (treating shared
	// access as interaction would shrink the prefixes below maximal and
	// miss violations that need the shared steps executed).
	conflictsWithOthers := func(i int, skip ...int) map[model.EntityID]bool {
		m := map[model.EntityID]bool{}
		for j := 0; j < k; j++ {
			excluded := false
			for _, s := range skip {
				if j == mod(s, k) {
					excluded = true
					break
				}
			}
			if excluded {
				continue
			}
			for _, e := range txn(i).Entities() {
				if model.Conflicts(txn(i), txn(j), e) {
					m[e] = true
				}
			}
		}
		return m
	}

	prefixes := make([]*model.Prefix, k)
	// T1*: maximal prefix avoiding every entity on which T1 conflicts with
	// T3..Tk (j ≠ 1,2). Avoiding ALL of Tk's conflicting entities here is
	// load-bearing: it is what keeps the serial replay T1*;...;Tk* legal
	// around the wrap (Tk* may use entities of T1 freely because T1* never
	// touched a conflicting one) and what forces the closing D-arc
	// Tk -> T1 (T1 needs x_k only beyond its prefix).
	avoid0 := conflictsWithOthers(0, 0, 1)
	prefixes[0] = model.MaximalPrefixAvoiding(txn(0), func(e model.EntityID) bool { return avoid0[e] })
	// Ti* for i = 2..k: avoid what the predecessor's prefix still HOLDS in
	// a conflicting mode — Y(T*_{i-1}) filtered to conflicts — and the
	// entities on which Ti conflicts with Tj, j ∉ {i-1, i, i+1}. Entities
	// the predecessor's prefix has already released are fair game: the
	// serial replay stays legal and their reuse only adds D-arcs in the
	// cycle's own direction (T_{i-1} used x before Ti — the unsafe-but-
	// deadlock-free violations live exactly here).
	for i := 1; i < k; i++ {
		avoid := conflictsWithOthers(i, i-1, i, i+1)
		for _, y := range prefixes[i-1].Y() {
			if model.Conflicts(txn(i), txn(i-1), y) {
				avoid[y] = true
			}
		}
		prefixes[i] = model.MaximalPrefixAvoiding(txn(i), func(e model.EntityID) bool { return avoid[e] })
	}

	// Property (3): every prefix contains its Lx_i step.
	for i := 0; i < k; i++ {
		lx, ok := txn(i).LockNode(xs[i])
		if !ok || !prefixes[i].Has(lx) {
			return nil
		}
	}
	return &MultiViolation{Cycle: append([]int(nil), cyc...), Prefixes: prefixes, Xs: xs}
}

func mod(a, m int) int { return ((a % m) + m) % m }
