package netlock

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// DialOptions tunes a client connection. The zero value heartbeats at a
// third of the server-granted lease.
type DialOptions struct {
	// HeartbeatEvery overrides the renewal period (default lease/3).
	HeartbeatEvery time.Duration
	// NoHeartbeat disables automatic lease renewal — the session's lease
	// expires unless the caller generates heartbeats itself. Crash and
	// lease tests use it to stage a stalled holder.
	NoHeartbeat bool
	// DialRetries is the number of additional connect attempts after a
	// failed TCP dial (default 0: fail on the first error). Only the
	// transport connect is retried — `connection refused` from a server
	// that has not bound its listener yet is the transient this exists
	// for (a cluster client racing an N-server startup). A server that
	// answers and then rejects the handshake (version or fingerprint
	// mismatch) is a configuration error and fails immediately, retries
	// remaining or not.
	DialRetries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt, capped at one second. Default 25ms when DialRetries > 0.
	RetryBackoff time.Duration
}

// dialTimeout bounds each TCP connect attempt and the handshake.
const dialTimeout = 5 * time.Second

// result is one response routed to its requester.
type result struct {
	status  byte
	payload []byte
}

// Client is the wire-protocol lock table: a locktable.Table whose state
// lives in a dlserver-hosted table in another process. All methods are
// safe for concurrent use; Close (or a lost connection) surfaces as
// ErrStopped exactly as an in-process table's shutdown would.
//
// Client also implements locktable.AsyncTable: AcquireAsync/ReleaseAsync
// submit without waiting for the reply, which the certified tier uses to
// pipeline lock chains (see internal/runtime). One instance's operations
// take effect in submission order — the server chains them — so the
// pipelined run reaches exactly the lock-table states of the synchronous
// one, and a release may be submitted before its own acquire's ack. It
// implements locktable.TryAcquirer too, through the server's TryAcquire.
type Client struct {
	ddb   *model.DDB
	conn  net.Conn
	lease time.Duration

	nextReq atomic.Uint64

	// out is the request writer: concurrent sessions' ops, fire-and-forget
	// releases, and heartbeats (its priority queue) coalesce into one
	// syscall. shutdown closes it before the transport, so an op racing
	// shutdown gets ErrStopped from enqueue, never a write on a closed conn.
	out flusher

	// Observability. m is the client-side view of the hosted table's
	// traffic (the server keeps its own authoritative bundle); wm covers
	// this connection's wire behavior.
	m  *obs.TableMetrics
	wm *obs.WireMetrics

	mu sync.Mutex
	// pending maps each request awaiting a reply to its record (nil for a
	// heartbeat, whose ack nobody reads). Exactly one party takes an entry
	// out — readLoop on the reply, or shutdown — and only that party sends
	// on its channel, once (see request).
	pending map[uint64]*request
	// grants maps each granted (entity, instance) to the mark of the
	// acquire that granted it. Every acquire is entered at submission, with
	// granted unset until its grant arrives: that entry is the in-flight
	// mark. A release submitted before the ack consumes the mark, and the
	// grant that then arrives finds its mark gone (or a later acquire's)
	// and is counted as granted and released at once, so Grants − Releases
	// stays the records held. A repeat of a granted entity leaves the
	// record alone (see reqState.repeat).
	grants map[grantRef]grantMark
	closed bool
	// ffErrs holds the failures pushed back for fire-and-forget releases,
	// by instance: only that instance's completion joins report one (and
	// consume it). At most ffErrCap are kept: a push that lost the race
	// with its instance's commit is never joined, so past the cap an
	// arbitrary record is evicted instead of every one kept forever.
	ffErrs map[locktable.InstKey]error

	// hook maps every error handed to a caller (see SetErrorHook).
	hook func(error) error

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var (
	_ locktable.Table       = (*Client)(nil)
	_ locktable.AsyncTable  = (*Client)(nil)
	_ locktable.TryAcquirer = (*Client)(nil)
)

// Dial connects to a netlock server and completes the handshake. The
// database must be the same one the server hosts (checked by fingerprint).
// Of cfg only Metrics is read, the client-side counter bundle; Shards
// sizes the hosted table, which NewServer's cfg sets.
func Dial(addr string, ddb *model.DDB, cfg locktable.Config, opts DialOptions) (*Client, error) {
	if ddb == nil {
		return nil, fmt.Errorf("netlock: nil database")
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	var nc net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		nc, err = (&net.Dialer{Timeout: dialTimeout}).Dial("tcp", addr)
		if err == nil {
			break
		}
		if attempt >= opts.DialRetries {
			return nil, fmt.Errorf("netlock: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{
		ddb:     ddb,
		conn:    nc,
		pending: map[uint64]*request{},
		grants:  map[grantRef]grantMark{},
		ffErrs:  map[locktable.InstKey]error{},
		out:     flusher{wake: make(chan struct{}, 1)},
		stop:    make(chan struct{}),
		m:       cfg.Metrics,
		wm:      obs.NewWireMetrics(),
	}
	if c.m == nil {
		c.m = obs.NewTableMetrics()
	}
	hash := DDBHash(ddb)
	var e enc
	e.u8(opHello)
	e.u64(c.nextReq.Add(1))
	e.u32(protocolVersion)
	e.raw(hash[:])
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := nc.Write(appendFrame(nil, e.b)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("netlock: handshake: %w", err)
	}
	body, err := readFrameInto(nc, new([]byte))
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("netlock: handshake: %w", err)
	}
	nc.SetDeadline(time.Time{})
	d := dec{b: body}
	if op := d.u8(); op != opResult {
		nc.Close()
		return nil, fmt.Errorf("netlock: handshake: unexpected opcode %#x", op)
	}
	d.u64() // reqID
	status := d.u8()
	if status != stOK {
		msg := d.str()
		nc.Close()
		if msg == "" {
			msg = fmt.Sprintf("status %#x", status)
		}
		return nil, fmt.Errorf("netlock: server rejected handshake: %s", msg)
	}
	d.u32() // connection id (diagnostic; the server namespaces keys itself)
	c.lease = time.Duration(d.u64()) * time.Millisecond
	if d.err != nil {
		nc.Close()
		return nil, fmt.Errorf("netlock: handshake: %w", d.err)
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.readLoop()
	}()
	go func() {
		defer c.wg.Done()
		if c.out.run(c.conn, c.stop, c.wm, stampFlush) != nil {
			c.shutdown()
		}
	}()
	if !opts.NoHeartbeat {
		every := opts.HeartbeatEvery
		if every <= 0 {
			every = c.lease / 3
		}
		if every <= 0 {
			every = time.Second
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.heartbeats(every)
		}()
	}
	return c, nil
}

// enqueue queues one frame body for the request writer (heartbeat frames
// on its priority queue), with the request's sampled span, nil otherwise.
// Returns ErrStopped once the client is shutting down.
func (c *Client) enqueue(frame []byte, heartbeat bool, sp *obs.Span) error {
	sp.Stamp(obs.StageEnqueue)
	if !c.out.push(frame, heartbeat, sp) {
		return locktable.ErrStopped
	}
	return nil
}

// stampFlush is the request writer's onFlush: the stamp happens-before
// the server sees the frame, which happens-before the reply that lets the
// session commit (and recycle) the span — no stamp can land on a recycled
// carrier.
func stampFlush(sp *obs.Span) { sp.Stamp(obs.StageFlush) }

// readLoop routes responses to their requesters. Any read error (server
// gone, Close) fails every outstanding request with ErrStopped.
func (c *Client) readLoop() {
	defer c.shutdown()
	br := bufio.NewReaderSize(c.conn, 64<<10)
	// One reusable frame buffer: a routed result's payload is copied out
	// (most replies — grants, release and heartbeat acks — have none; a
	// sampled grant carries its 24-byte span trailer), so the common reply
	// costs no allocation.
	var rbuf []byte
	for {
		body, err := readFrameInto(br, &rbuf)
		if err != nil {
			return
		}
		d := dec{b: body}
		switch op := d.u8(); op {
		case opResult:
			reqID := d.u64()
			status := d.u8()
			if d.err != nil {
				return
			}
			if reqID == 0 {
				// Unsolicited failure push for a fire-and-forget release,
				// naming the failing instance as trailing bytes: record it
				// for that instance's completion join (its commit) only. A
				// renewed lease serves every other instance normally.
				key := d.key()
				if d.err != nil {
					return
				}
				switch status {
				case stStaleFence:
					c.wm.FenceRejections.Inc()
				case stLeaseExpired:
					c.wm.LeaseExpiries.Inc()
				}
				c.mu.Lock()
				if len(c.ffErrs) >= ffErrCap {
					for k := range c.ffErrs {
						delete(c.ffErrs, k)
						break
					}
				}
				if c.ffErrs[key] == nil {
					c.ffErrs[key] = ffStatusErr(status)
				}
				c.mu.Unlock()
				continue
			}
			var payload []byte
			if len(d.b) > 0 {
				payload = append(payload, d.b...)
			}
			c.mu.Lock()
			r, ok := c.pending[reqID]
			delete(c.pending, reqID)
			c.mu.Unlock()
			if ok {
				c.wm.InFlight.Add(-1)
				if r != nil {
					r.ch <- result{status: status, payload: payload}
				}
			}
		default:
			return
		}
	}
}

// heartbeats renews the lease until Close. The renewal frame rides the
// request writer's priority queue — no syscall of its own, and no ordering
// behind a deep send queue — and its ack is routed to a nil reply entry
// and dropped (a slow server must not delay the next renewal).
func (c *Client) heartbeats(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			reqID := c.register(nil, false)
			var e enc
			e.u8(opHeartbeat)
			e.u64(reqID)
			if c.enqueue(e.b, true, nil) != nil {
				return // shutdown began, and takes the pending entry out
			}
			c.wm.HeartbeatsSent.Inc()
		}
	}
}

// shutdown closes the request writer, closes the transport, and fails
// every outstanding request. It backs both Close and a lost connection.
// The writer closes first: an op racing shutdown either enqueued before —
// and is failed here through its pending channel — or gets ErrStopped
// from enqueue; either way the answer is deterministic and nothing writes
// to a closed conn.
func (c *Client) shutdown() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.out.close()
	c.conn.Close()
	c.mu.Lock()
	c.closed = true
	pending := c.pending
	c.pending = map[uint64]*request{}
	c.mu.Unlock()
	c.wm.InFlight.Add(-int64(len(pending)))
	for _, r := range pending {
		if r != nil { // a heartbeat's ack has no reader
			r.ch <- result{status: stStopped}
		}
	}
}

// request is one wire operation: its reply channel, reqID, key, entity,
// mode and span. It is the Completion of all three async ops — an acquire
// (op opAcquire), an acked release (op opRelease, reqID set) and a
// fire-and-forget release (op opRelease, reqID 0, no reply: its Wait reads
// ffErrs) — and the reply record of call. Records come from reqPool and
// keep their channel across reuse. A record goes back only after its one
// reply was received (or, fire-and-forget, once waited): the party that
// took the request out of pending sent that reply and will never send
// again, so the next request that draws the record owns it alone. A wait
// that is abandoned — cancelled, timed out or stopped — leaves its record
// to the collector, since its reply may still be coming.
//
// An acquire's record may also be joined by a partition fence (see
// Ticket) before its owner waits it: the join collects the reply and
// keeps the outcome on the record, and the owner's Wait returns that
// outcome and recycles the record. On a record that has a ticket, mu
// serializes the two and is held across the wait, so whichever comes
// second — possibly on another goroutine — returns the first's outcome
// instead of racing it for the one reply; gen, bumped by that record's
// Wait, tells a fence whether the record is still the one it saw
// submitted. A record without a ticket takes neither.
type request struct {
	ch  chan result
	mu  sync.Mutex
	gen atomic.Uint64
	reqState
}

// reqState is what one use of a record carries; recycle clears it.
type reqState struct {
	c     *Client
	reqID uint64
	key   locktable.InstKey
	ent   model.EntityID
	sp    *obs.Span // non-nil iff a sampled acquire
	op    byte
	mode  locktable.Mode
	// granted marks an acked release whose acquire was granted at
	// submission: await's self-fence bounds the join. repeat marks an
	// acquire of an entity the instance already holds: the server answers
	// it from its book, and it neither replaces nor releases the holder's
	// record, whatever its outcome. live is set while
	// the record is drawn and not yet waited by its owner, fenced once it
	// has a ticket. settled is set once the outcome was collected (by a
	// fence join): err holds it, and spent says the reply was received,
	// so the record may be recycled.
	granted bool
	repeat  bool
	live    bool
	fenced  bool
	settled bool
	spent   bool
	err     error
}

var reqPool = sync.Pool{New: func() any { return &request{ch: make(chan result, 1)} }}

// newRequest draws a record for one op.
func (c *Client) newRequest(op byte) *request {
	r := reqPool.Get().(*request)
	r.c, r.op, r.live = c, op, true
	return r
}

// recycle returns a record whose reply was received, keeping its channel
// and generation, so a second Wait (a contract breach) finds it not live.
func (r *request) recycle() {
	r.reqState = reqState{}
	reqPool.Put(r)
}

// grantMark is an acquire's entry in grants: the in-flight mark of request
// reqID until granted is set, its grant record after.
type grantMark struct {
	reqID   uint64
	granted bool
}

// register allocates a request ID for r (nil for a heartbeat, whose ack is
// dropped) and enters r in pending. With mark set (an acquire) r is entered
// in grants as its in-flight mark, in the same critical section, unless
// the entity is granted already: then r is a repeat.
func (c *Client) register(r *request, mark bool) uint64 {
	reqID := c.nextReq.Add(1)
	if r != nil {
		r.reqID = reqID
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if r != nil {
			r.ch <- result{status: stStopped}
		}
		return reqID
	}
	c.pending[reqID] = r
	if mark {
		ref := grantRef{ent: r.ent, key: r.key}
		if c.grants[ref].granted {
			r.repeat = true
		} else {
			c.grants[ref] = grantMark{reqID: reqID}
		}
	}
	depth := int64(len(c.pending))
	c.mu.Unlock()
	c.wm.InFlight.Add(1)
	c.wm.PipelineDepth.Record(depth)
	return reqID
}

// send builds one frame and queues it for the flush loop, with the
// request's sampled span riding along (nil when unsampled). The encoder
// comes from the shared pool — enqueue copies the body into the pending
// buffer, so the scratch space recycles immediately. This is the per-op
// hot path.
func (c *Client) send(build func(*enc), sp *obs.Span) error {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	build(e)
	err := c.enqueue(e.b, false, sp)
	encPool.Put(e)
	return err
}

// call is the synchronous request/response path for everything but
// Acquire and Release. A send that fails means shutdown began, and
// shutdown answers every pending request ErrStopped, so the reply is
// awaited either way (so are an acquire's and an acked release's).
func (c *Client) call(build func(reqID uint64, e *enc)) (result, error) {
	r := c.newRequest(opReleaseAll)
	reqID := c.register(r, false)
	c.send(func(e *enc) { build(reqID, e) }, nil)
	res, err := c.await(r)
	if err != nil {
		return res, err
	}
	r.recycle()
	if res.status == stStopped {
		return res, locktable.ErrStopped
	}
	return res, nil
}

// await collects the reply to a request that completes promptly on a
// healthy server (everything but a parked acquire). The wait is bounded:
// a response that outlasts several lease windows means the server is
// wedged or partitioned (TCP alive, nobody home) — the client
// self-fences, turning a would-be permanent hang in a release join or a
// call into the same ErrStopped a closed table gives, with
// the server's lease machinery reclaiming whatever the session held. A
// reply that already streamed back is taken without arming the timer, and
// the timer a wait does arm is a pooled one. The error is set only when
// the wait self-fenced, the reply still due; the caller recycles a record
// whose reply was received.
func (c *Client) await(r *request) (result, error) {
	select {
	case res := <-r.ch:
		return res, nil
	default:
	}
	bound := 3 * c.lease
	if bound < 15*time.Second {
		bound = 15 * time.Second
	}
	timer := getTimer(bound)
	defer putTimer(timer)
	select {
	case res := <-r.ch:
		return res, nil
	case <-timer.C:
		c.shutdown()
		return result{}, locktable.ErrStopped
	}
}

// Wait implements locktable.Completion, and recycles the record once its
// reply was received. A record a fence already joined hands back the
// outcome the join kept.
func (r *request) Wait(ctx context.Context) error {
	if !r.live {
		return errWaitedTwice
	}
	r.live = false
	fenced := r.fenced
	if fenced {
		r.mu.Lock()
	}
	if !r.settled {
		r.settled, r.err = true, r.c.fail(r.outcome(ctx))
	}
	err, spent := r.err, r.spent
	if fenced {
		r.gen.Add(1)
		r.mu.Unlock()
	}
	if spent {
		r.recycle()
	}
	return err
}

// outcome waits for the op's result and sets spent if the reply was
// received. An acquire's wait is the parked tail of Acquire: its
// non-blocking first receive is the pipelined steady state — by the time
// a session joins, the ack usually streamed back long ago — and skips the
// multi-way select. An acked release's receipt waits for its acquire to
// resolve when that was still in flight, so its join is bounded by ctx and
// the connection's life rather than by await's self-fence.
func (r *request) outcome(ctx context.Context) error {
	c := r.c
	var err error
	var res result
	switch {
	case r.op == opAcquire:
		select {
		case res = <-r.ch:
			err, r.spent = c.finishAcquire(r, res, r.sp), true
		default:
			select {
			case res = <-r.ch:
				err, r.spent = c.finishAcquire(r, res, r.sp), true
			case <-ctx.Done():
				err = c.cancelAcquire(r, ctx.Err())
			case <-c.stop:
				c.unmark(r)
				err = locktable.ErrStopped
			}
		}
	case r.reqID == 0: // fire-and-forget release
		c.mu.Lock()
		err = c.ffErrs[r.key]
		if err != nil {
			delete(c.ffErrs, r.key)
		}
		c.mu.Unlock()
		r.spent = true
	case r.granted:
		res, err = c.await(r)
		r.spent = err == nil
		err = c.finishRelease(res, err)
	default:
		select {
		case res = <-r.ch:
			err, r.spent = c.finishRelease(res, nil), true
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	return err
}

// errWaitedTwice answers a second Wait on a completion that was already
// waited.
var errWaitedTwice = errors.New("netlock: completion waited twice")

// Ticket is a partition fence's hold on one in-flight acquire: the record
// AcquireAsync returned and its generation then. The cluster router keeps
// one per instance and partition, by value, and joins it when the
// instance's next operation goes to another partition.
type Ticket struct {
	r   *request
	gen uint64
}

// TicketOf returns the ticket of a completion this package's AcquireAsync
// returned. Call it before the completion is waited or handed to another
// goroutine: it marks the record, so its owner's Wait serializes with the
// ticket's Join.
func TicketOf(comp locktable.Completion) Ticket {
	r := comp.(*request)
	r.fenced = true
	return Ticket{r: r, gen: r.gen.Load()}
}

// Join waits for the acquire to resolve and returns its outcome, which
// the record keeps for its owner's later Wait. An acquire its owner
// already waited imposes no order any more: Join then returns nil at once,
// without touching the record, which may already serve another request.
func (t Ticket) Join() error {
	r := t.r
	if r.gen.Load() != t.gen {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen.Load() != t.gen {
		return nil
	}
	if !r.settled {
		r.settled, r.err = true, r.c.fail(r.outcome(context.Background()))
	}
	return r.err
}

// Settled reports whether the ticket orders nothing any more: it is the
// zero Ticket, or its acquire's owner has waited it (see Join).
func (t Ticket) Settled() bool { return t.r == nil || t.r.gen.Load() != t.gen }

// unmark clears an acquire's in-flight mark once it resolved without a
// grant. A grant turned the mark into a record, and an early release
// already consumed it (a later acquire's mark may stand in its place);
// all are left alone.
func (c *Client) unmark(r *request) {
	ref := grantRef{ent: r.ent, key: r.key}
	c.mu.Lock()
	if m, ok := c.grants[ref]; ok && m.reqID == r.reqID && !m.granted {
		delete(c.grants, ref)
	}
	c.mu.Unlock()
}

// AcquireAsync implements locktable.AsyncTable: the request is queued for
// the wire and the caller joins the completion later. The server executes
// one instance's acquires strictly in submission order (entering the
// hosted table serially), so a pipelined chain reaches exactly the states
// the synchronous chain would — the property that lets a *certified*
// template ship its next lock request before the previous ack returns.
// The (entity, instance) is marked in flight until the completion
// resolves, so a release may follow at once (see ReleaseAsync).
//
// A sampled acquire (inst.Span set) grows one trailing marker byte on its
// frame — the acquire decoder ignores leftover bytes, so this needed no
// version bump — which tells the server to time its stages and send them
// back as deltas on the grant reply. The completion is always the
// request's record (see TicketOf): a send that fails means shutdown began,
// which resolves the record ErrStopped (see call).
func (c *Client) AcquireAsync(inst locktable.Instance, ent model.EntityID, mode locktable.Mode) locktable.Completion {
	return c.submitAcquire(inst, ent, mode, 0)
}

// submitAcquire registers and ships one acquire with the given flags
// (acqTry or none; the holding flag comes from inst).
func (c *Client) submitAcquire(inst locktable.Instance, ent model.EntityID, mode locktable.Mode, flags byte) *request {
	sp := inst.Span
	r := c.newRequest(opAcquire)
	r.key, r.ent, r.mode, r.sp = inst.Key, ent, mode, sp
	reqID := c.register(r, true)
	if inst.Holding {
		flags |= acqHolding
	}
	c.send(func(e *enc) {
		e.u8(opAcquire)
		e.u64(reqID)
		e.key(inst.Key)
		e.i64(int64(ent))
		e.mode(mode)
		e.u8(flags)
		if sp != nil {
			e.u8(1) // sampled marker: ask the server to time this op
		}
	}, sp)
	return r
}

// TryAcquire implements locktable.TryAcquirer: a try acquire, which the
// server answers from its hosted table's TryAcquire — granted, or a miss
// that queued nothing on either end — and never parks. A try waits on no
// holder, so its wait is bounded by await's self-fence, like a call's. A
// repeat of a held entity is granted and leaves the grant record alone.
func (c *Client) TryAcquire(inst locktable.Instance, ent model.EntityID, mode locktable.Mode) (bool, error) {
	r := c.submitAcquire(inst, ent, mode, acqTry)
	res, err := c.await(r)
	if err != nil {
		c.unmark(r)
		return false, c.fail(err)
	}
	if res.status == stMiss {
		c.unmark(r)
		r.recycle()
		return false, nil
	}
	err = c.finishAcquire(r, res, r.sp)
	r.recycle()
	return err == nil, c.fail(err)
}

// Acquire implements locktable.Table: the request blocks server-side in
// the hosted table (which owns all mode compatibility decisions);
// cancellation maps to a cancel message that withdraws it there,
// and a grant that races the cancellation is released before returning.
func (c *Client) Acquire(ctx context.Context, inst locktable.Instance, ent model.EntityID, mode locktable.Mode) error {
	return c.AcquireAsync(inst, ent, mode).Wait(ctx)
}

// finishAcquire maps an acquire result onto the Table contract, turning
// the mark into a grant record on a grant. Grants are counted here —
// client-side, so this connection's table bundle covers exactly the
// traffic it generated (the server keeps its own authoritative bundle for
// the hosted table). If an early release consumed the mark, the server
// ran that release right after the grant, and the grant is counted with
// its release.
func (c *Client) finishAcquire(r *request, res result, sp *obs.Span) error {
	key, mode := r.key, r.mode
	if res.status != stOK {
		c.unmark(r)
	}
	switch res.status {
	case stOK:
		if sp != nil && len(res.payload) >= 24 {
			// Server stage trailer: chain-start, grant and reply-enqueue as
			// ns deltas from server receipt — never wall clocks, so host
			// skew cannot corrupt the waterfall.
			d := dec{b: res.payload}
			sp.ServerDeltas(int64(d.u64()), int64(d.u64()), int64(d.u64()))
		}
		sp.Stamp(obs.StageWakeup)
		if r.repeat {
			return nil // the holder's record stands; nothing new was granted
		}
		ref := grantRef{ent: r.ent, key: key}
		c.mu.Lock()
		m, ok := c.grants[ref]
		released := !ok || m.reqID != r.reqID
		if !released {
			c.grants[ref] = grantMark{reqID: r.reqID, granted: true}
		}
		c.mu.Unlock()
		hint := uint64(key.ID)
		c.m.Grants.Inc(hint)
		if released {
			c.m.Releases.Inc(hint) // after the grant: Held never dips below zero
		}
		if mode == locktable.Shared {
			c.m.SlowShared.Inc(hint)
		}
		return nil
	case stStopped:
		return locktable.ErrStopped
	case stLeaseExpired:
		c.wm.LeaseExpiries.Inc()
		return ErrLeaseExpired
	case stCancelled:
		// The server withdrew the request without us asking — only possible
		// after a revoke raced a cancel bookkeeping-wise; treat as expiry.
		c.wm.LeaseExpiries.Inc()
		return ErrLeaseExpired
	case stErr:
		d := dec{b: res.payload}
		return fmt.Errorf("netlock: acquire: %s", d.str())
	default:
		return fmt.Errorf("netlock: acquire: unknown status %#x", res.status)
	}
}

// cancelAcquire withdraws an in-flight acquire after the caller's context
// was cancelled, then waits for the server's authoritative answer: if the
// grant won the race it is released before returning, so the instance
// holds nothing either way — and leaves no mark. Only a received answer
// marks the record spent.
func (c *Client) cancelAcquire(r *request, cause error) error {
	if err := c.send(func(e *enc) {
		e.u8(opCancel)
		e.u64(r.reqID)
	}, nil); err != nil {
		// Connection gone: the request dies with the session server-side
		// (release-on-disconnect); nothing is held.
		c.unmark(r)
		return cause
	}
	// Bound the wait for the server's answer by the lease window (plus
	// slack): a wedged-but-TCP-alive server must not make a cancelled
	// Lock hang. Past the bound, self-fence — tear the session down, so
	// "holds nothing on return" is enforced by the server's
	// release-on-disconnect/lease machinery instead of the missing reply.
	bound := c.lease + c.lease/2
	if bound < 2*time.Second {
		bound = 2 * time.Second
	}
	timer := getTimer(bound)
	defer putTimer(timer)
	select {
	case res := <-r.ch:
		// The grant raced the cancel: record it, then give it back (a
		// no-op when an early release chained behind it already did). The
		// give-back's outcome is not the caller's, so it skips the error
		// hook. A repeat's grant is the holder's, which stays held.
		if res.status != stOK {
			c.unmark(r)
		} else if c.finishAcquire(r, res, nil) == nil && !r.repeat {
			if rel, _ := c.release(r.ent, r.key, true); rel != nil {
				if rel.outcome(context.Background()); rel.spent {
					rel.recycle()
				}
			}
		}
		r.spent = true
		return cause
	case <-c.stop:
	case <-timer.C:
		c.shutdown()
	}
	c.unmark(r)
	return cause
}

// takeGrant consumes the client-side grant record for (ent, key),
// reporting whether the acquire was granted and whether a record existed.
// The shared front half of the single-entity release paths. An in-flight
// mark is consumed too and reports not granted: the release then names
// the grant its acquire will record, and finishAcquire counts both when
// it arrives.
func (c *Client) takeGrant(ent model.EntityID, key locktable.InstKey) (granted, held, closed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, false, true
	}
	ref := grantRef{ent: ent, key: key}
	m, held := c.grants[ref]
	if held {
		delete(c.grants, ref)
		granted = m.granted
		if granted {
			// The client-side un-hold: the grant record is consumed here,
			// so this is where Grants − Releases = records still held
			// balances (whatever the server replies, the record is no
			// longer ours).
			c.m.Releases.Inc(uint64(key.ID))
		}
	}
	return granted, held, false
}

// finishRelease maps a release result onto the Table contract.
func (c *Client) finishRelease(res result, err error) error {
	switch {
	case err != nil, res.status == stStopped:
		return locktable.ErrStopped
	case res.status == stOK:
		return nil
	case res.status == stStaleFence:
		c.wm.FenceRejections.Inc()
		return ErrStaleFence
	default:
		return fmt.Errorf("netlock: release: unknown status %#x", res.status)
	}
}

// Release implements locktable.Table: the acked release, joined at once.
// A release of an entity the instance holds no record for is the
// in-process no-op; a recorded grant is released by name, and a revoked
// one (the lease expired and the server took the grant back) reports
// ErrStaleFence — the lock was not freed, and whoever holds it now keeps
// it.
func (c *Client) Release(ent model.EntityID, key locktable.InstKey) error {
	return c.ReleaseAsyncAcked(ent, key).Wait(context.Background())
}

// ffStatusErr maps an unsolicited fire-and-forget failure status onto
// the Table error vocabulary.
func ffStatusErr(status byte) error {
	switch status {
	case stStaleFence:
		return ErrStaleFence
	case stLeaseExpired:
		return ErrLeaseExpired
	default:
		return fmt.Errorf("netlock: release failed with status %#x", status)
	}
}

// ffErrCap bounds the fire-and-forget failure records a client keeps.
const ffErrCap = 256

// ReleaseAsync implements locktable.AsyncTable: the release is fully
// fire-and-forget. The frame is queued for the wire (coalescing with
// whatever else the flush loop is carrying) with request ID zero — the
// server applies it silently and replies only on failure, so the common
// release costs no reply frame, no pending registration, and no join
// wait. A failure (ErrStaleFence: the lease was revoked and the grant
// was no longer ours to free) is pushed back unsolicited, naming the
// instance, and recorded for it alone; the instance's completion joins —
// typically at its commit — report the record. The push races the join,
// so a failure may arrive after the commit that should have seen it (the
// record is then evicted unread, see ffErrCap); staleness means the lease
// already expired, a condition the lease machinery also surfaces on every
// acquire until the lease is renewed. That race is why synchronous
// sessions, whose errors must surface at their own commit, use
// ReleaseAsyncAcked instead. The grant record is consumed at submission,
// so a later ReleaseAll of the same entity is the usual no-op rather than
// a double release.
//
// The release need not wait for its own acquire's ack: while an acquire
// of the entity is in flight, the server resolves the release in the
// instance's wire order to whatever that acquire recorded — the grant is
// released right after it is made, and a failed or withdrawn acquire
// makes the release the silent no-op. The caller still joins the
// acquire, whose completion reports the grant (or the failure) as usual.
func (c *Client) ReleaseAsync(ent model.EntityID, key locktable.InstKey) locktable.Completion {
	return c.completion(c.release(ent, key, false))
}

// ReleaseAsyncAcked is ReleaseAsync with an execution receipt: the
// release is queued for the wire without waiting, but it carries a real
// request ID, so the completion resolves only when the server has
// actually executed it (the read loop applies releases inline, so the
// ack proves the lock is free) and reports exactly this release's
// outcome. A synchronous session needs that: its Unlock returns at
// submission, so its Commit must see its own releases' errors, never a
// racing push (the cluster backend's ReleaseAsyncAcked forwards here for
// the same reason). The wire's FIFO already orders the release ahead of
// the instance's next operation, which is why the pipelined tier keeps
// the receipt-free ReleaseAsync. Release is this call joined at once.
// Like ReleaseAsync, it may ship while the entity's acquire is in flight
// (see request.outcome for how its join is bounded then).
func (c *Client) ReleaseAsyncAcked(ent model.EntityID, key locktable.InstKey) locktable.Completion {
	return c.completion(c.release(ent, key, true))
}

// completion hands a caller an op's record, or the error (through the
// hook) of an op that resolved at submission — Done for a release of
// nothing.
func (c *Client) completion(r *request, err error) locktable.Completion {
	if r == nil {
		return locktable.ResolvedCompletion(c.fail(err))
	}
	return r
}

// release ships a release, with a receipt when acked, and returns its
// record, or nil and the error of a release that resolved at submission
// (nil when the instance holds no record for the entity). An acked
// release's failed send is answered through pending (see call).
func (c *Client) release(ent model.EntityID, key locktable.InstKey, acked bool) (*request, error) {
	granted, held, closed := c.takeGrant(ent, key)
	if closed {
		return nil, locktable.ErrStopped
	}
	if !held {
		return nil, nil
	}
	r := c.newRequest(opRelease)
	r.key, r.granted = key, granted
	var reqID uint64 // zero: fire-and-forget, no reply expected on success
	if acked {
		reqID = c.register(r, false)
	}
	if err := c.send(func(e *enc) {
		e.u8(opRelease)
		e.u64(reqID)
		e.i64(int64(ent))
		e.key(key)
	}, nil); err != nil && !acked {
		r.recycle()
		return nil, err
	}
	return r, nil
}

// ReleaseAll implements locktable.Table: one wire round trip releases
// every listed entity the instance holds a record for (the abort path).
// Stale entries are skipped server-side — they are no longer this
// session's to free — and reported back as one ErrStaleFence-wrapping
// error counting every skipped release, so no failure is silently
// dropped. The frame executes inline, outside the instance's chain, so
// in-flight marks are left for their acquires' joins to settle (callers
// resolve their acquires first, as Session.Abort does).
func (c *Client) ReleaseAll(ents []model.EntityID, key locktable.InstKey) error {
	return c.fail(c.releaseAll(ents, key))
}

func (c *Client) releaseAll(ents []model.EntityID, key locktable.InstKey) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return locktable.ErrStopped
	}
	rels := make([]model.EntityID, 0, len(ents))
	for _, ent := range ents {
		ref := grantRef{ent: ent, key: key}
		if m, ok := c.grants[ref]; ok && m.granted {
			delete(c.grants, ref)
			rels = append(rels, ent)
		}
	}
	c.mu.Unlock()
	if len(rels) == 0 {
		return nil
	}
	c.m.Releases.Add(uint64(key.ID), int64(len(rels)))
	res, err := c.call(func(reqID uint64, e *enc) {
		e.u8(opReleaseAll)
		e.u64(reqID)
		e.key(key)
		e.u32(uint32(len(rels)))
		for _, ent := range rels {
			e.i64(int64(ent))
		}
	})
	if err != nil {
		return locktable.ErrStopped
	}
	d := dec{b: res.payload}
	if stale := d.u32(); d.err == nil && stale > 0 {
		return fmt.Errorf("netlock: release-all: %d stale grant(s) skipped (revoked lease; no longer ours to free): %w",
			stale, ErrStaleFence)
	}
	return nil
}

// Close implements locktable.Table: parked Acquires wake with ErrStopped
// and the connection closes, which is the server's cue to release
// everything the session still holds. Idempotent.
func (c *Client) Close() {
	c.shutdown()
	c.wg.Wait()
}

// SetErrorHook installs h on the client's error path: every error the
// client hands a caller — a completion's outcome, an operation that
// resolved at submission, ReleaseAll's — passes through h exactly once,
// and the caller gets what h returns. Set it before the client carries
// traffic. The cluster router installs its partition-loss translation
// here.
func (c *Client) SetErrorHook(h func(error) error) { c.hook = h }

// fail applies the error hook to an error handed to a caller.
func (c *Client) fail(err error) error {
	if err == nil || c.hook == nil {
		return err
	}
	return c.hook(err)
}

// Lease returns the server-granted lease window (diagnostics and tests).
func (c *Client) Lease() time.Duration { return c.lease }

// Metrics returns this connection's wire instrumentation (frames, bytes,
// flushes, batch width, heartbeats, lease expiries surfaced to callers,
// pipeline depth). Safe concurrent with traffic and after Close.
func (c *Client) Metrics() *obs.WireMetrics { return c.wm }

// TableMetrics returns the client-side view of the hosted table's traffic
// — Config.Metrics when the caller supplied one (the cluster backend
// shares one bundle across all partition clients), else a private bundle.
func (c *Client) TableMetrics() *obs.TableMetrics { return c.m }
