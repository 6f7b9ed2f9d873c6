package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlock/internal/model"
)

// mixRun is the template driver the engine tests share: clients
// goroutines each run perClient instances of templates[client %
// len(templates)] to commit through BeginAt/Lock/Unlock/Commit. No engine
// aborts a session, so there is nothing to retry: any failed instance
// fails the test, and one whose Lock, Unlock or Commit outlives stall
// marks the run stalled.
type mixRun struct {
	templates          []*model.Transaction
	twoPhase           bool // run every session two-phase (the fallback tier)
	clients, perClient int
	hold               time.Duration // yield-spin after each grant: a wider conflict window, no timer
	// stall bounds every session operation: one still waiting after it is
	// the stall of an unhandled deadlock, and ends the run (see guard).
	// Default 250ms.
	stall time.Duration
	seed  uint64
}

// mixResult is what a mixRun leaves behind once the engine is closed.
type mixResult struct {
	Counters
	stalled   bool
	elapsed   time.Duration
	Committed map[int]bool // committed instance ids
}

// run drives the mix on e, closes e, and reports.
func (m mixRun) run(t *testing.T, e *Engine) mixResult {
	t.Helper()
	if m.stall <= 0 {
		m.stall = 250 * time.Millisecond
	}
	var (
		mu        sync.Mutex
		committed = map[int]bool{}
		stalled   atomic.Bool
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < m.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(m.seed, uint64(c)*7919+1))
			tmpl := m.templates[c%len(m.templates)]
			for i := 0; i < m.perClient && !stalled.Load(); i++ {
				s := new(Session)
				err := e.BeginAt(s, tmpl, m.twoPhase)
				if err == nil {
					if err = m.attempt(s, rng, &stalled); err == nil {
						mu.Lock()
						committed[s.key.ID] = true
						mu.Unlock()
					} else {
						s.Abort()
					}
				}
				if errors.Is(err, context.DeadlineExceeded) {
					stalled.Store(true)
					return
				}
				if err != nil {
					// A stalled operation closes the engine under every
					// client (see guard); that is the stall, reported once.
					if !stalled.Load() || !errors.Is(err, ErrClosed) {
						t.Errorf("client %d: %v", c, err)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Close()
	return mixResult{Counters: e.Counters(), stalled: stalled.Load(), elapsed: time.Since(start),
		Committed: committed}
}

// attempt runs one session to commit, executing a random minimal
// unexecuted template operation at each step.
func (m mixRun) attempt(s *Session, rng *rand.Rand, stalled *atomic.Bool) error {
	for {
		ready := s.tmpl.MinimalNodes(&s.executed)
		if len(ready) == 0 {
			return m.guard(s.e, stalled, s.Commit)
		}
		nd := s.tmpl.Node(ready[rng.IntN(len(ready))])
		if nd.Kind == model.UnlockOp {
			if err := m.guard(s.e, stalled, func() error { return s.Unlock(nd.Entity) }); err != nil {
				return err
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.stall)
		err := m.guard(s.e, stalled, func() error { return s.Lock(ctx, nd.Entity, nd.Mode) })
		cancel()
		if err != nil {
			return err
		}
		for end := time.Now().Add(m.hold); time.Now().Before(end); {
			gort.Gosched()
		}
	}
}

// guard runs one session operation under the stall watchdog. An operation
// still running after stall marks the run stalled and closes the engine:
// that frees a join that takes no context — a pipelined Commit's, or a
// cluster partition fence's inside Lock or Unlock — and the operation
// reports the stall.
func (m mixRun) guard(e *Engine, stalled *atomic.Bool, op func() error) error {
	w := time.AfterFunc(m.stall, func() {
		stalled.Store(true)
		e.Close()
	})
	err := op()
	if !w.Stop() {
		return fmt.Errorf("runtime test: operation outlived the %v stall bound: %w", m.stall, context.DeadlineExceeded)
	}
	return err
}
