package netlock

import (
	"bufio"
	"io"
	"runtime"
	"sync"

	"distlock/internal/obs"
)

// writerYields bounds the flush loop's opportunistic micro-batching: on
// finding its queues empty, a writer yields the processor up to this
// many times before flushing, giving concurrently running sessions the
// chance to append the frames they were about to push. The value
// trades a few scheduler passes of latency on a lone op for dramatically
// wider batches under load (on a saturated host the writer otherwise
// wakes between two pushes and flushes one or two frames per syscall).
const writerYields = 8

// frameQueue is one queue of pending output: frames appended in place,
// and a spare array for the writer to swap in. The writer takes the
// pending frames only when there are some, writes them, and hands the
// array back as the spare, so steady state recycles two arrays per
// queue; an idle pass leaves both where they are. The flusher's mutex
// guards every method.
type frameQueue struct {
	b     []byte // pending frames, length-prefixed, encoded in place
	n     int64  // frames in b
	spare []byte // the array the next take swaps in
}

// push appends one frame.
func (q *frameQueue) push(body []byte) {
	q.b = appendFrame(q.b, body)
	q.n++
}

// take swaps the pending frames out, with their count. An empty queue
// returns nil and keeps both arrays.
func (q *frameQueue) take() ([]byte, int64) {
	if len(q.b) == 0 {
		return nil, 0
	}
	b, n := q.b, q.n
	q.b, q.n, q.spare = q.spare, 0, nil
	return b, n
}

// recycle hands a written array back as the spare.
func (q *frameQueue) recycle(b []byte) {
	if b != nil && q.spare == nil {
		q.spare = b[:0]
	}
}

// flusher is one connection direction's flush-coalescing writer: the
// client's requests and the server's replies. Frames are pushed from any
// goroutine and drained by run through one buffered writer, one flush per
// cycle, so everything that accumulated while the previous cycle was
// writing — concurrent sessions' requests, pipelined chains, grants and
// acks — leaves in one syscall. A lone frame still flushes at once (the
// wake fires, the queue holds one frame, the flush follows). The priority
// queue (client heartbeats) is written first each cycle: a saturated
// request queue must not starve the lease.
type flusher struct {
	mu   sync.Mutex
	prio frameQueue
	q    frameQueue
	// spans holds the sampled spans riding queued frames, appended in the
	// critical section that queues the frame, so run hands onFlush exactly
	// the spans whose frames its cycle carries.
	spans  []*obs.Span
	wake   chan struct{} // buffered, capacity 1
	closed bool
}

// push queues one frame body (copied: the caller may reuse it at once)
// with its sampled span, nil when unsampled. It reports false once the
// flusher is closed: the frame is discarded, never written.
func (f *flusher) push(body []byte, prio bool, sp *obs.Span) bool {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return false
	}
	if prio {
		f.prio.push(body)
	} else {
		f.q.push(body)
	}
	if sp != nil {
		f.spans = append(f.spans, sp)
	}
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
	return true
}

// close refuses every later push and drops what is queued: the
// connection is gone, and its frames with it.
func (f *flusher) close() {
	f.mu.Lock()
	f.closed = true
	f.prio, f.q, f.spans = frameQueue{}, frameQueue{}, nil
	f.mu.Unlock()
}

// run is the flush loop, until stop closes (nil) or a write fails (the
// error). Each cycle drains the queues, yielding up to writerYields
// times on finding them empty, and flushes once. The cycle's spans go to
// onFlush strictly BEFORE the flush syscall: program order on this
// goroutine puts that stamp ahead of the peer seeing the frame, hence
// ahead of any reply that lets the span's owner commit (and recycle) it.
func (f *flusher) run(w io.Writer, stop <-chan struct{}, wm *obs.WireMetrics, onFlush func(*obs.Span)) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var spans []*obs.Span // reused across cycles; sampled frames only
	for {
		select {
		case <-stop:
			return nil
		case <-f.wake:
		}
		yields := 0
		var frames, bytes int64
		for {
			f.mu.Lock()
			pb, pn := f.prio.take()
			qb, qn := f.q.take()
			if len(f.spans) > 0 {
				spans = append(spans, f.spans...)
				f.spans = f.spans[:0]
			}
			f.mu.Unlock()
			if pn+qn == 0 {
				// Micro-batch: before paying the flush syscall, hand the
				// processor back a few times — a session or chain that was
				// about to push its next frame gets to, and the frame rides
				// this flush instead of forcing its own.
				if yields < writerYields {
					yields++
					runtime.Gosched()
					continue
				}
				break
			}
			frames += pn + qn
			bytes += int64(len(pb) + len(qb))
			for _, b := range [2][]byte{pb, qb} {
				if len(b) > 0 {
					if _, err := bw.Write(b); err != nil {
						return err
					}
				}
			}
			// Recycle the drained arrays: steady-state pushes append into
			// retired capacity instead of growing fresh buffers. A closed
			// flusher keeps nothing.
			f.mu.Lock()
			if !f.closed {
				f.prio.recycle(pb)
				f.q.recycle(qb)
			}
			f.mu.Unlock()
		}
		for i, sp := range spans {
			onFlush(sp)
			spans[i] = nil
		}
		spans = spans[:0]
		if err := bw.Flush(); err != nil {
			return err
		}
		if frames > 0 {
			// One completed cycle is one write syscall; the frame count it
			// carried is the realized batch width.
			wm.Frames.Add(frames)
			wm.Bytes.Add(bytes)
			wm.Flushes.Inc()
			wm.BatchWidth.Record(frames)
		}
	}
}
