package runtime

import (
	gort "runtime"
	"sync"
	"time"
)

// holdTimer delivers the post-grant hold delays of Config.HoldTime with
// sub-OS-tick resolution.
//
// Why not time.After per hold: benchmark holds are tens of microseconds,
// far below the wake-up resolution of a parked runtime. When every client
// goroutine sleeps in its own timer simultaneously the last P parks, and
// the next timer fires only after an OS-level wake (~1ms here) — 50x the
// requested hold, so a run would measure the wake latency, not the lock
// path.
//
// Instead, one scheduler goroutine owns every pending hold: it sleeps via
// a real timer while the earliest deadline is comfortably far, and
// spin-yields (Gosched) across the last stretch so expiry is noticed
// within a scheduler pass instead of a timer wake. The spin window doubles
// as the keep-awake: while any sub-millisecond hold is pending the P
// never parks. The goroutine starts lazily on
// the first hold, so engines that never hold (the entire session-layer
// service path) pay nothing.
type holdTimer struct {
	stop <-chan struct{} // engine stop: the loop exits when closed

	mu      sync.Mutex
	waiters []holdWaiter
	started bool

	// kick (buffered 1) coalesces "a new, possibly earlier deadline was
	// registered" signals into the scheduler's sleep.
	kick chan struct{}
}

type holdWaiter struct {
	deadline time.Time
	ch       chan struct{} // buffered 1: the scheduler's send never blocks
}

// spinWindow is how close to the earliest deadline the scheduler switches
// from sleeping to spin-yielding. It must exceed the parked-runtime timer
// wake error, or the sleep overshoots straight past the deadline.
const spinWindow = time.Millisecond

// wait registers a hold of duration d and returns the channel the
// scheduler fires at expiry. The caller selects on it alongside its abort
// and stop channels; an abandoned hold costs one buffered send.
func (h *holdTimer) wait(d time.Duration) <-chan struct{} {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.waiters = append(h.waiters, holdWaiter{deadline: time.Now().Add(d), ch: ch})
	if !h.started {
		h.started = true
		h.kick = make(chan struct{}, 1)
		go h.loop()
	}
	h.mu.Unlock()
	select {
	case h.kick <- struct{}{}:
	default:
	}
	return ch
}

// fireExpired fires every waiter whose deadline has passed and reports
// the earliest remaining deadline (ok=false when none are pending).
func (h *holdTimer) fireExpired(now time.Time) (next time.Time, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < len(h.waiters); {
		w := h.waiters[i]
		if !w.deadline.After(now) {
			w.ch <- struct{}{}
			last := len(h.waiters) - 1
			h.waiters[i] = h.waiters[last]
			h.waiters = h.waiters[:last]
			continue
		}
		if !ok || w.deadline.Before(next) {
			next, ok = w.deadline, true
		}
		i++
	}
	return next, ok
}

func (h *holdTimer) loop() {
	for {
		now := time.Now()
		next, pending := h.fireExpired(now)
		if !pending {
			select {
			case <-h.kick:
				continue
			case <-h.stop:
				return
			}
		}
		if wait := next.Sub(now); wait > spinWindow {
			select {
			case <-time.After(wait - spinWindow):
			case <-h.kick:
			case <-h.stop:
				return
			}
			continue
		}
		// Near the deadline: yield-spin on the cached earliest deadline,
		// no mutex, until it passes or a kick means a possibly-earlier
		// registration arrived (then rescan).
	spin:
		for {
			select {
			case <-h.kick:
				break spin
			case <-h.stop:
				return
			default:
				if !time.Now().Before(next) {
					break spin
				}
				gort.Gosched()
			}
		}
	}
}
