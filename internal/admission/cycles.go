package admission

import (
	"cmp"
	"context"
	"math"
	"slices"

	"distlock/internal/core"
	"distlock/internal/model"
)

// cycleWalk is the Theorem 4 phase of one admission. It enumerates the
// cycles the candidate adds to the EXPANDED interaction graph — m
// copy-vertices per class, copies adjacent when the class interacts with
// itself — as closed walks over classes, each class used at most m times.
// A closed walk is the shape of every expanded cycle through its classes in
// its cyclic order; a cycle's verdict depends only on that, so the shape is
// checked once, and it counts as the ∏ (m − earlier occurrences of the
// class) / |stabiliser| cycles it stands for (DESIGN.md, "Cycle budget").
// The walk starts at the candidate and emits a closed walk only when it is
// the least of its 2L rotations and reflections, the candidate ranking
// lowest, so each shape is emitted once.
//
// A cycleWalk lives on its Service, so its scratch survives between
// admissions, and is used only under the Service's mutex.
type cycleWalk struct {
	svc    *Service
	ctx    context.Context
	n, m   int      // live classes (the candidate is class n) and multiplicity
	cnbrs  []*class // the candidate's live neighbours
	cself  bool     // copies of the candidate interact
	toCand []bool   // by live class: it interacts with the candidate
	uses   []int    // by class: occurrences on the walk

	// ids is the walk in expanded ids, indexing txns, where each class is
	// listed m times: occurrence k of class i is i*m+k. ranks is the walk's
	// classes in canonical order: the candidate 0, live class i i+1.
	ids, ranks []int
	txns       []*model.Transaction

	checked   int64 // expanded cycles the emitted shapes stand for
	viol      *core.MultiViolation
	over      bool // the next shape would exceed the budget
	cancelled bool
}

// run enumerates the cycles candidate c, with live neighbours nbrs, adds to
// s's live set, stopping at the first violation, at the budget, or on
// cancellation; the outcome is left in w.viol, w.over and w.cancelled.
func (w *cycleWalk) run(ctx context.Context, s *Service, c *candidate, nbrs []*class) {
	n, m := len(s.classes), s.mult
	toCand, uses := slices.Grow(w.toCand[:0], n)[:n], slices.Grow(w.uses[:0], n+1)[:n+1]
	clear(toCand)
	clear(uses)
	*w = cycleWalk{svc: s, ctx: ctx, n: n, m: m, cnbrs: nbrs, cself: c.self,
		toCand: toCand, uses: uses, ids: w.ids[:0], ranks: w.ranks[:0], txns: w.txns[:0]}
	for _, o := range nbrs {
		w.toCand[o.pos] = true
	}
	for _, l := range s.classes {
		for range m {
			w.txns = append(w.txns, l.txn)
		}
	}
	for range m {
		w.txns = append(w.txns, c.txn)
	}
	w.step(n)
	w.ctx = nil
	clear(w.txns) // hold no evicted class past its admission
}

// step appends the next occurrence of class v to the walk, unless all m
// are on it already, and explores every extension. It reports false once
// the enumeration has stopped.
func (w *cycleWalk) step(v int) bool {
	k := w.uses[v]
	if k == w.m {
		return true
	}
	w.uses[v]++
	w.ids = append(w.ids, v*w.m+k)
	w.ranks = append(w.ranks, (v+1)%(w.n+1))
	ok := w.extend(v)
	w.ids = w.ids[:len(w.ids)-1]
	w.ranks = w.ranks[:len(w.ranks)-1]
	w.uses[v]--
	return ok
}

// extend closes the walk ending at class u back to the candidate if it can,
// then continues it to each class adjacent to u.
func (w *cycleWalk) extend(u int) bool {
	nbrs, self, closes := w.cnbrs, w.cself, w.cself
	if u < w.n {
		l := w.svc.classes[u]
		nbrs, self, closes = l.nbrs, l.self, w.toCand[u]
	}
	if closes && len(w.ids) >= 3 && !w.emit() {
		return false
	}
	if u < w.n && closes && !w.step(w.n) {
		return false
	}
	if self && !w.step(u) {
		return false
	}
	for _, o := range nbrs {
		if !w.step(o.pos) {
			return false
		}
	}
	return true
}

// emit checks the closed walk's shape, if this walk is its canonical one.
// It reports false to stop the enumeration.
func (w *cycleWalk) emit() bool {
	stab := w.stabiliser()
	if stab == 0 {
		return true
	}
	if w.ctx.Err() != nil {
		w.cancelled = true
		return false
	}
	weight := w.weight(stab)
	if b := w.svc.budget; b > 0 && weight > b-w.checked {
		w.over = true
		return false
	}
	w.checked += weight
	w.svc.stats.CyclesChecked += weight
	w.viol = w.svc.cycles.CheckCycle(w.txns, w.ids)
	return w.viol == nil
}

// stabiliser returns how many of the closed walk's 2L rotations and
// reflections equal it, or 0 if one of them is lexicographically smaller
// by rank.
func (w *cycleWalk) stabiliser() int {
	rk := w.ranks
	L := len(rk)
	if rk[L-1] < rk[1] {
		return 0 // the walk read backwards is smaller
	}
	stab := 0
	for r := range L {
		if rk[r] != 0 {
			continue // the walk starts at the candidate, the least class
		}
		for _, d := range [2]int{1, L - 1} { // forward, backward
			c := 0
			for i := 1; i < L && c == 0; i++ {
				c = cmp.Compare(rk[(r+i*d)%L], rk[i])
			}
			if c < 0 {
				return 0
			}
			if c == 0 {
				stab++
			}
		}
	}
	return stab
}

// weight returns the number of expanded cycles the canonical closed walk
// stands for: its injective copy assignments, ∏ (m − earlier occurrences of
// the class), over its stabiliser. A walk whose assignments overflow int64
// weighs math.MaxInt64: it stands for more than math.MaxInt64/2L cycles.
func (w *cycleWalk) weight(stab int) int64 {
	a := int64(1)
	for _, id := range w.ids {
		f := int64(w.m - id%w.m)
		if a > math.MaxInt64/f {
			return math.MaxInt64
		}
		a *= f
	}
	return a / int64(stab)
}
