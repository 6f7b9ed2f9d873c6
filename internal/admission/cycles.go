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
// lowest, so each shape is emitted once. An emitted shape whose walk
// certificate (walkCert) proves both directions dead still counts against
// the budget but skips CheckCycle.
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
	cert       walkCert // the walk's shapes, and what they prove dead

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
		toCand: toCand, uses: uses, ids: w.ids[:0], ranks: w.ranks[:0], txns: w.txns[:0],
		cert: w.cert}
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
	w.cert.release()
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
	w.cert.push(w.txns[v*w.m].Shape())
	ok := w.extend(v)
	w.cert.pop()
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

// emit checks the closed walk's shape, if this walk is its canonical one,
// unless its walk certificate proves it benign. It reports false to stop
// the enumeration.
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
	if w.cert.benign() {
		return true
	}
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

// walkCert proves closed walks benign before CheckCycle sees them, from
// the walk as it grows. An interior position j (0 < j < top) keeps its
// neighbours j±1 in every closed walk that extends the walk, and every
// position q with |q−j| ≥ 2 is a non-neighbour of j there, so what j
// conflicts on with q lies in far(j) of each such cycle. If avoiding it
// already removes j's forward (backward) Lx step — core.FarKills — then
// CheckCycle's far rows kill every forward (backward) traversal of each of
// those cycles. A direction, once dead, stays dead as the walk grows. Both
// dead means CheckCycle would return nil.
//
// The flags are settled lazily, only for walks that close, so a branch of
// the walk that never closes pays nothing.
type walkCert struct {
	pos     []certPos
	settled int // pos[:settled] have their flags
}

// certPos is one position of the walk.
type certPos struct {
	sh *model.Shape
	// xf and xb, once the position is interior, are the first common locks
	// of its edges to the next and the previous position.
	xf, xb model.EntityID
	// fwd and bwd are the directions proved dead for every closed walk that
	// extends the walk up to this position.
	fwd, bwd bool
}

// push appends a position to the walk.
func (c *walkCert) push(sh *model.Shape) {
	c.pos = append(c.pos, certPos{sh: sh, xf: -1, xb: -1})
}

// pop removes the walk's last position.
func (c *walkCert) pop() {
	c.pos = c.pos[:len(c.pos)-1]
	c.settled = min(c.settled, len(c.pos))
}

// release drops the shapes the scratch still points at, keeping its
// capacity.
func (c *walkCert) release() {
	clear(c.pos[:cap(c.pos)])
	c.pos, c.settled = c.pos[:0], 0
}

// benign reports whether the walk, closed back to its start, has both
// directions proved dead: CheckCycle on it returns nil.
func (c *walkCert) benign() bool {
	p := c.pos
	for t := c.settled; t < len(p); t++ {
		f, b := false, false
		if t > 0 {
			f, b = p[t-1].fwd, p[t-1].bwd
		}
		// j = t−1 has just become interior: pair it with the positions
		// before its predecessor, and the new position t with the interior
		// positions before t−1.
		if j := t - 1; j > 0 && !(f && b) {
			p[j].xf, p[j].xb = core.FirstLock(p[j].sh, p[t].sh), core.FirstLock(p[j].sh, p[j-1].sh)
			for q := 0; q < j-1 && !(f && b); q++ {
				f = f || core.FarKills(p[j].sh, p[q].sh, p[j].xf)
				b = b || core.FarKills(p[j].sh, p[q].sh, p[j].xb)
			}
		}
		for j := 1; j < t-1 && !(f && b); j++ {
			f = f || core.FarKills(p[j].sh, p[t].sh, p[j].xf)
			b = b || core.FarKills(p[j].sh, p[t].sh, p[j].xb)
		}
		p[t].fwd, p[t].bwd = f, b
	}
	c.settled = len(p)
	return p[len(p)-1].fwd && p[len(p)-1].bwd
}
