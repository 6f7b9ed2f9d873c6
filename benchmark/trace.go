package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// span is one traced call, recorded by the benchmark around a call it
// makes into a layer (never by the program). Times are nanoseconds since
// the run's epoch. Trace groups the spans of one transaction
// (client<<32 | seq, +1 so 0 means "none"); server-side table spans carry
// the entity instead and are linked to a transaction by entity and time
// only, since nothing crosses the wire to parent them.
type span struct {
	name       string
	start, end int64
	trace      uint64
	root       bool
	entity     int32
}

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanBuf is a preallocated span store owned by one goroutine. When full
// it drops further spans (counted) rather than growing: the trace file is
// an illustration of the window, the metrics come from the full samples.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

// add keeps s; a nil buffer (the warm-up of a traced slice) keeps nothing.
func (b *spanBuf) add(s span) {
	if b == nil {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// sharedSpanBuf is the server-side variant: table calls arrive on the
// server's own goroutines, so slots are claimed with one atomic add.
type sharedSpanBuf struct {
	spans []span
	next  atomic.Int64
}

func newSharedSpanBuf(capacity int) *sharedSpanBuf {
	return &sharedSpanBuf{spans: make([]span, capacity)}
}

func (b *sharedSpanBuf) add(s span) {
	i := b.next.Add(1) - 1
	if i < int64(len(b.spans)) {
		b.spans[i] = s
	}
}

// take returns the recorded spans and how many were dropped. Call only
// after the recording goroutines have stopped.
func (b *sharedSpanBuf) take() ([]span, int64) {
	n := b.next.Load()
	if n <= int64(len(b.spans)) {
		return b.spans[:n], 0
	}
	return b.spans, n - int64(len(b.spans))
}

// traceFile collects a workload's spans and writes them as JSON lines.
type traceFile struct {
	spans   []span
	dropped int64
}

func (t *traceFile) addAll(spans []span, dropped int64) {
	t.spans = append(t.spans, spans...)
	t.dropped += dropped
}

func (t *traceFile) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d`, s.name, s.start, s.end)
		switch {
		case s.trace != 0 && s.root:
			fmt.Fprintf(w, `,"trace":"%d#%d"`, (s.trace-1)>>32, (s.trace-1)&0xffffffff)
		case s.trace != 0:
			fmt.Fprintf(w, `,"trace":"%d#%d","parent":"txn"`, (s.trace-1)>>32, (s.trace-1)&0xffffffff)
		default:
			fmt.Fprintf(w, `,"entity":%d`, s.entity)
		}
		w.WriteString("}\n")
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, `{"name":"dropped","count":%d}`+"\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
