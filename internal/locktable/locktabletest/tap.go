// Package locktabletest is test support for lock tables. Its Tap records
// a table's grants from outside the table: it wraps any in-process
// locktable.Table, so a test can tap the engine's own table or, through
// netlock.ServerOptions.New, the table each server hosts, without the
// table knowing and without disarming its fast paths. The serializability
// checks read its per-entity grant order; its holder book checks mutual
// exclusion.
package locktabletest

import (
	"context"
	"sync"

	"distlock/internal/locktable"
	"distlock/internal/model"
)

// Grant records that a transaction instance was granted the lock on an
// entity in a mode. Inst is the key the table saw: behind a netlock server
// it is the composed key, whose low 32 bits are the client's instance ID.
type Grant struct {
	Entity model.EntityID
	Inst   int
	Mode   locktable.Mode
}

// Tap wraps a lock table and records every successful Acquire and
// TryAcquire. A grant is recorded after the inner table granted it and
// before its holder can release it, and a conflicting grant needs that
// release first, so conflicting grants of one entity are recorded in
// grant order; two shared grants may be recorded in either order.
//
// The tap also keeps its own book of holders, so the mutual-exclusion
// check does not trust the table it checks: a holder leaves the book
// before its release is forwarded and joins it after its grant returned,
// and a grant that finds a conflicting holder in the book is a violation.
// Releasing a lock nobody holds is legal (the table's no-op) and leaves
// the book as it was.
type Tap struct {
	locktable.Table

	mu         sync.Mutex
	grants     []Grant
	holders    map[model.EntityID]map[locktable.InstKey]locktable.Mode
	violations int
}

// New wraps inner.
func New(inner locktable.Table) *Tap {
	return &Tap{Table: inner, holders: map[model.EntityID]map[locktable.InstKey]locktable.Mode{}}
}

// Acquire forwards to the inner table and records the grant.
func (t *Tap) Acquire(ctx context.Context, inst locktable.Instance, ent model.EntityID, mode locktable.Mode) error {
	err := t.Table.Acquire(ctx, inst, ent, mode)
	if err == nil {
		t.granted(ent, inst.Key, mode)
	}
	return err
}

// TryAcquire forwards to the inner table and records a grant.
func (t *Tap) TryAcquire(inst locktable.Instance, ent model.EntityID, mode locktable.Mode) (bool, error) {
	ok, err := t.Table.TryAcquire(inst, ent, mode)
	if ok {
		t.granted(ent, inst.Key, mode)
	}
	return ok, err
}

// Release drops the holder from the book, then forwards.
func (t *Tap) Release(ent model.EntityID, key locktable.InstKey) error {
	t.releasing(ent, key)
	return t.Table.Release(ent, key)
}

// ReleaseAll is ReleaseEach through the tap's Release.
func (t *Tap) ReleaseAll(ents []model.EntityID, key locktable.InstKey) error {
	return locktable.ReleaseEach(t, ents, key)
}

// granted records a grant. A duplicate Acquire by a current holder grants
// nothing new, so it records nothing.
func (t *Tap) granted(ent model.EntityID, key locktable.InstKey, mode locktable.Mode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hs := t.holders[ent]
	if hs == nil {
		hs = map[locktable.InstKey]locktable.Mode{}
		t.holders[ent] = hs
	}
	if _, dup := hs[key]; dup {
		return
	}
	for _, held := range hs {
		if held == locktable.Exclusive || mode == locktable.Exclusive {
			t.violations++
			break
		}
	}
	hs[key] = mode
	t.grants = append(t.grants, Grant{Entity: ent, Inst: key.ID, Mode: mode})
}

// releasing forgets the holder, if it is one.
func (t *Tap) releasing(ent model.EntityID, key locktable.InstKey) {
	t.mu.Lock()
	delete(t.holders[ent], key)
	t.mu.Unlock()
}

// Grants returns a copy of the recorded grants, in recording order.
func (t *Tap) Grants() []Grant {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Grant(nil), t.grants...)
}

// Violations reports how many grants found a conflicting holder in the
// book.
func (t *Tap) Violations() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.violations
}
