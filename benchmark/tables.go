package main

import (
	"context"
	"sync"
	"sync/atomic"

	"distlock"
	"distlock/internal/locktable"
)

// Both tables below EMBED a real locktable.Table and override only the
// grant-path methods, so growth or shrinkage of the Table interface
// elsewhere does not break the benchmark.

// nullTable grants everything immediately. Hosted by a netlock server it
// isolates the wire (framing, syscalls, scheduler hand-offs, the server's
// own bookkeeping) from lock-table work and from waiting for holders.
type nullTable struct{ locktable.Table }

func newNullTable(ddb *distlock.DDB, cfg locktable.Config) locktable.Table {
	return nullTable{locktable.NewSharded(ddb, cfg)}
}

func (nullTable) Acquire(context.Context, locktable.Instance, distlock.EntityID, locktable.Mode) error {
	return nil
}
func (nullTable) TryAcquire(locktable.Instance, distlock.EntityID, locktable.Mode) (bool, error) {
	return true, nil
}
func (nullTable) Release(distlock.EntityID, locktable.InstKey) error      { return nil }
func (nullTable) ReleaseAll([]distlock.EntityID, locktable.InstKey) error { return nil }
func (nullTable) Withdraw(distlock.EntityID, locktable.InstKey) bool      { return false }

// tableProbe is what a tracedTable measured. All fields are cumulative
// over the hosting server's life.
type tableProbe struct {
	tryHits   atomic.Int64 // acquisitions granted inline by TryAcquire
	tryNs     atomic.Int64 // time in TryAcquire, hits and misses
	acquires  atomic.Int64 // blocking acquires (a try missed, was skipped, or is not offered)
	acquireNs atomic.Int64
	releaseNs atomic.Int64
	spans     *sharedSpanBuf

	// The wrapper keeps its own record of who holds what, so the
	// mutual-exclusion check does not trust the table it is checking and
	// tolerates releases of locks that are not held (a documented no-op).
	mu         sync.Mutex
	holders    map[holderKey]locktable.Mode
	owner      []int32 // per entity: -1 one exclusive holder, n > 0 n shared holders
	violations int64
}

type holderKey struct {
	ent distlock.EntityID
	key locktable.InstKey
}

func newTableProbe(ddb *distlock.DDB, spanCap int) *tableProbe {
	return &tableProbe{
		spans:   newSharedSpanBuf(spanCap),
		holders: map[holderKey]locktable.Mode{},
		owner:   make([]int32, ddb.NumEntities()),
	}
}

// granted records a grant and flags a double grant. It runs after the
// inner table granted and before the holder can release, so a conflicting
// owner word means the table really had two conflicting holders at once.
func (p *tableProbe) granted(ent distlock.EntityID, key locktable.InstKey, mode locktable.Mode) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hk := holderKey{ent, key}
	if _, dup := p.holders[hk]; dup {
		return // a duplicate acquire by the holder grants nothing new
	}
	p.holders[hk] = mode
	switch {
	case mode == locktable.Exclusive && p.owner[ent] != 0, mode == locktable.Shared && p.owner[ent] < 0:
		p.violations++
	case mode == locktable.Exclusive:
		p.owner[ent] = -1
	default:
		p.owner[ent]++
	}
}

// releasing forgets the holder; it runs before the inner release so the
// next holder's grant cannot observe a stale owner word.
func (p *tableProbe) releasing(ent distlock.EntityID, key locktable.InstKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hk := holderKey{ent, key}
	mode, held := p.holders[hk]
	if !held {
		return
	}
	delete(p.holders, hk)
	if mode == locktable.Exclusive {
		p.owner[ent] = 0
	} else {
		p.owner[ent]--
	}
}

func (p *tableProbe) violationCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.violations
}

// tracedTable wraps the table a server hosts in a traced window: it times
// every grant-path call, records a span for each, and asserts mutual
// exclusion from the server's side of the wire (which also covers the
// pipelined workloads, where the client returns from Lock before the
// grant exists).
type tracedTable struct {
	locktable.Table
	p *tableProbe
}

// tracedTryTable adds the non-blocking capability, so a server hosting
// the wrapper takes the same inline fast path it takes on the bare table.
type tracedTryTable struct {
	tracedTable
	try locktable.TryAcquirer
}

// newTracedTable wraps inner, forwarding every optional capability it has.
func newTracedTable(inner locktable.Table, p *tableProbe) locktable.Table {
	t := tracedTable{Table: inner, p: p}
	if try, ok := inner.(locktable.TryAcquirer); ok {
		return tracedTryTable{tracedTable: t, try: try}
	}
	return t
}

func (t tracedTable) Acquire(ctx context.Context, inst locktable.Instance, ent distlock.EntityID, mode locktable.Mode) error {
	start := now()
	err := t.Table.Acquire(ctx, inst, ent, mode)
	end := now()
	t.p.acquires.Add(1)
	t.p.acquireNs.Add(end - start)
	if err == nil {
		t.p.granted(ent, inst.Key, mode)
	}
	t.p.spans.add(span{name: "locktable.acquire", start: start, end: end, entity: int32(ent)})
	return err
}

func (t tracedTryTable) TryAcquire(inst locktable.Instance, ent distlock.EntityID, mode locktable.Mode) (bool, error) {
	start := now()
	ok, err := t.try.TryAcquire(inst, ent, mode)
	end := now()
	t.p.tryNs.Add(end - start)
	if ok {
		t.p.tryHits.Add(1)
		t.p.granted(ent, inst.Key, mode)
		t.p.spans.add(span{name: "locktable.acquire", start: start, end: end, entity: int32(ent)})
	}
	return ok, err
}

func (t tracedTable) Release(ent distlock.EntityID, key locktable.InstKey) error {
	t.p.releasing(ent, key)
	start := now()
	err := t.Table.Release(ent, key)
	end := now()
	t.p.releaseNs.Add(end - start)
	t.p.spans.add(span{name: "locktable.release", start: start, end: end, entity: int32(ent)})
	return err
}

func (t tracedTable) ReleaseAll(ents []distlock.EntityID, key locktable.InstKey) error {
	for _, ent := range ents {
		t.p.releasing(ent, key)
	}
	return t.Table.ReleaseAll(ents, key)
}
