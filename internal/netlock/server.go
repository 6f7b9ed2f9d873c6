package netlock

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// DefaultLease is the default connection lease: a connection that neither
// disconnects nor heartbeats within this window is revoked — its pending
// acquires withdrawn, its granted locks released to their next waiters.
const DefaultLease = 5 * time.Second

// ServerOptions parameterizes a Server. The zero value hosts a sharded
// table with the default lease.
type ServerOptions struct {
	// Lease is the heartbeat window granted to every connection. Default
	// DefaultLease.
	Lease time.Duration
	// New constructs the hosted in-process table (nil: locktable.NewSharded).
	// It receives cfg with the server's metrics bundle. The grant book keeps
	// repeated acquires and releases of unheld locks from the table, which
	// the server sees only through locktable.Table, so a wrapper may
	// observe it: the benchmark times it, and tests record its grants with
	// locktabletest.Tap, where the low 32 bits of a composed instance key
	// are the client's instance ID.
	New func(*model.DDB, locktable.Config) locktable.Table
}

// Server hosts one in-process lock table for remote clients. Each accepted
// connection is a session: its instance keys are namespaced by connection,
// its releases name the grant records they free, and its lease is renewed
// by heartbeats.
// Create with NewServer, serve with Serve, stop with Close.
type Server struct {
	ddb   *model.DDB
	tab   locktable.Table
	lease time.Duration
	hash  [32]byte

	ln       net.Listener
	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once

	nextConn atomic.Uint32
	connsMu  sync.RWMutex // guards conns/preConns only; never held around table calls
	conns    map[uint32]*srvConn
	preConns map[net.Conn]struct{} // accepted, not yet past the handshake

	// Observability. tm is the hosted table's bundle (the inner table
	// counts into it); wm aggregates the reply side of every connection;
	// spans holds the server-side waterfalls of client-sampled ops (idle
	// cost zero — a span starts only when a request carries the sampled
	// marker byte).
	tm    *obs.TableMetrics
	wm    *obs.WireMetrics
	spans *obs.SpanRing
}

// grantRef names one grant record: (entity, instance key). The server
// keys a connection's records by the composed instance key, the client
// keys its own by client numbering.
type grantRef struct {
	ent model.EntityID
	key locktable.InstKey
}

// chainItem is one operation waiting its turn in an instance's pipeline
// chain (see startAcquire): an acquire, or — when rel is set — a release
// that arrived while the instance still had acquires in flight. Ordering
// releases through the chain is what keeps a pipelined instance's
// *executed* schedule equal to its program order: a release executed
// inline while an earlier-submitted acquire was still chained would free
// the entity before a lock the template ordered ahead of the unlock was
// granted — a schedule the certificate never admitted. Release items have
// no done channel: they cannot block (the hosted table's Release never
// waits) and are executed unconditionally — even after a revoke sweep,
// when learning the grant went stale is exactly what must still happen.
//
// An acquire item is also the connection's in-flight record of the
// request (srvConn.acquires) until execAcquire retires it, and the
// minimal cancellable context it hands the inner table. context.WithCancel
// with the connection context as parent would register and unregister a
// child per acquire — a mutex and map touch on the shared conn context,
// per op — and the propagation it buys is redundant: revoke cancels every
// in-flight acquire through c.acquires explicitly.
type chainItem struct {
	reqID uint64
	key   locktable.InstKey // composed
	ent   model.EntityID
	mode  locktable.Mode
	rel   bool
	// holding is the acquire's Instance.Holding: the session holds a lock,
	// so a compatible shared request passes a queued writer. try marks a
	// try acquire, which execAcquire runs through TryAcquire.
	holding, try bool
	// Set under the connection mutex: the client sent opCancel, or lease
	// expiry withdrew the request.
	cancelled, revoked bool
	sp                 *obs.Span // non-nil iff the client sampled this acquire
	done               chan struct{}
	once               sync.Once
}

func (it *chainItem) cancel()                     { it.once.Do(func() { close(it.done) }) }
func (it *chainItem) Deadline() (time.Time, bool) { return time.Time{}, false }
func (it *chainItem) Done() <-chan struct{}       { return it.done }
func (it *chainItem) Value(any) any               { return nil }
func (it *chainItem) Err() error {
	select {
	case <-it.done:
		return context.Canceled
	default:
		return nil
	}
}

// acqChain is the pipeline chain of one composed instance key: acquires
// the client shipped before their predecessors' acks returned. Presence
// in srvConn.chains means a worker goroutine is draining it.
type acqChain struct {
	q []*chainItem
}

// srvConn is one client session.
type srvConn struct {
	id  uint32
	net net.Conn

	// out is the reply writer: grants and acks resolved while a flush is
	// in progress coalesce into the next syscall. dropConn closes it, so a
	// late chain reply is dropped, not queued on a dead connection.
	out flusher

	mu        sync.Mutex // guards the fields below; never held around table calls
	acquires  map[uint64]*chainItem
	chains    map[locktable.InstKey]*acqChain
	grants    map[grantRef]struct{} // recorded grants
	tombs     map[grantRef]struct{} // grants a lease expiry revoked, until a release or re-grant (see revoke)
	closed    bool
	leaseLost bool

	lastRenew atomic.Int64 // unix nanos of the last heartbeat (or hello)

	ctx    context.Context // conn lifetime: cancelled on disconnect/server stop
	cancel context.CancelFunc
}

// NewServer builds a server hosting a fresh table over the database.
func NewServer(ddb *model.DDB, cfg locktable.Config, opts ServerOptions) (*Server, error) {
	if ddb == nil {
		return nil, fmt.Errorf("netlock: nil database")
	}
	if opts.Lease <= 0 {
		opts.Lease = DefaultLease
	}
	mk := opts.New
	if mk == nil {
		mk = locktable.NewSharded
	}
	s := &Server{
		ddb:      ddb,
		lease:    opts.Lease,
		hash:     DDBHash(ddb),
		stop:     make(chan struct{}),
		conns:    map[uint32]*srvConn{},
		preConns: map[net.Conn]struct{}{},
		tm:       cfg.Metrics,
		wm:       obs.NewWireMetrics(),
		spans:    obs.NewSpanRing(256),
	}
	if s.tm == nil {
		s.tm = obs.NewTableMetrics()
	}
	inner := cfg
	inner.Metrics = s.tm // the hosted table counts into the server's bundle
	s.tab = mk(ddb, inner)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.sweeper()
	}()
	return s, nil
}

// Listen starts serving on the TCP address (":0" picks a free port) and
// returns once the listener is up; Serve runs in the background.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return nil
}

// Addr returns the listening address (after Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on the listener until Close (or a listener
// error) and handles each as a session.
func (s *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// Close stops the server: the listener closes, every session is revoked
// and disconnected, and the hosted table shuts down (waking any still-
// parked acquires with ErrStopped). Close is idempotent.
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		if s.ln != nil {
			s.ln.Close()
		}
		s.connsMu.RLock()
		conns := make([]*srvConn, 0, len(s.conns))
		for _, c := range s.conns {
			conns = append(conns, c)
		}
		pre := make([]net.Conn, 0, len(s.preConns))
		for nc := range s.preConns {
			pre = append(pre, nc)
		}
		s.connsMu.RUnlock()
		for _, nc := range pre {
			nc.Close() // sockets stalled in (or before) the handshake
		}
		for _, c := range conns {
			s.dropConn(c)
		}
		s.tab.Close()
	})
	s.wg.Wait()
}

// Metrics returns the server's wire instrumentation: reply frames, bytes
// and flushes aggregated across every connection, heartbeats received,
// leases the sweeper revoked, and stale-fence release rejections. Safe
// concurrent with traffic and after Close.
func (s *Server) Metrics() *obs.WireMetrics { return s.wm }

// TableMetrics returns the hosted table's bundle — the authoritative
// server-side counts (clients keep per-connection views of their own).
func (s *Server) TableMetrics() *obs.TableMetrics { return s.tm }

// Spans returns the server-side span ring: the in-server waterfalls
// (receive → chain start → grant → reply enqueue → reply flush) of ops the
// clients sampled. Safe concurrent with traffic.
func (s *Server) Spans() *obs.SpanRing { return s.spans }

// handshakeTimeout bounds how long an accepted socket may take to
// complete the hello exchange. The lease is the natural scale, floored so
// aggressive test leases don't reject slow-starting legitimate dialers.
func (s *Server) handshakeTimeout() time.Duration {
	if s.lease > 5*time.Second {
		return s.lease
	}
	return 5 * time.Second
}

// sweeper revokes the lease of every connection silent past the lease
// window. The connection itself stays open — a later heartbeat starts a
// fresh lease — but its grants and pending acquires do not survive.
func (s *Server) sweeper() {
	tick := s.lease / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(tick):
		}
		now := time.Now().UnixNano()
		s.connsMu.RLock()
		var expired []*srvConn
		for _, c := range s.conns {
			if now-c.lastRenew.Load() > int64(s.lease) {
				expired = append(expired, c)
			}
		}
		s.connsMu.RUnlock()
		for _, c := range expired {
			s.revoke(c, false)
		}
	}
}

// revoke withdraws a connection's pending acquires and releases its
// recorded grants — the lease-expiry and disconnect path. With
// disconnect=false the connection survives (lease-lost until the next
// heartbeat) and every grant taken leaves a tombstone: the first release
// naming it is rejected as stale, and a new grant of the same ref clears
// it (see execRelease, recordGrant). With disconnect=true it is being
// torn down, and nobody is left to release.
func (s *Server) revoke(c *srvConn, disconnect bool) {
	c.mu.Lock()
	if c.leaseLost && !disconnect {
		c.mu.Unlock()
		return // already revoked; nothing new to take
	}
	expired := !c.leaseLost && !disconnect // a live session missed its window
	c.leaseLost = true
	for _, it := range c.acquires {
		if !it.cancelled {
			it.revoked = true
		}
		it.cancel()
	}
	grants := make([]grantRef, 0, len(c.grants))
	for ref := range c.grants {
		grants = append(grants, ref)
		if !disconnect {
			if c.tombs == nil {
				c.tombs = map[grantRef]struct{}{}
			}
			c.tombs[ref] = struct{}{}
		}
	}
	c.grants = map[grantRef]struct{}{}
	c.mu.Unlock()
	if expired {
		s.wm.LeaseExpiries.Inc()
	}
	// Table calls outside every server lock.
	for _, ref := range grants {
		s.tab.Release(ref.ent, ref.key)
	}
}

// dropConn tears a session down: revoke everything, cancel the conn
// context, close the socket, remove it from the registry.
func (s *Server) dropConn(c *srvConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.out.close()
	s.revoke(c, true)
	c.cancel()
	c.net.Close()
	s.connsMu.Lock()
	delete(s.conns, c.id)
	s.connsMu.Unlock()
}

// replyFlushed is the reply writer's onFlush: it stamps the reply-flush
// stage before the syscall (program order keeps it honest within a few
// microseconds) and commits the span to the server ring — the writer is
// its last holder, since the chain goroutine let go when it queued the
// reply.
func replyFlushed(sp *obs.Span) {
	sp.Stamp(obs.StageReplyFlush)
	sp.Commit()
}

// result replies to a request. The encoder comes from the shared pool —
// the reply writer copies the body into its pending buffer, so the
// scratch space recycles immediately. This is the per-op hot path.
//
// An unsampled grant reply has no payload. A sampled one (sp non-nil)
// carries a 24-byte trailer — chain-start, grant, and reply-enqueue
// offsets as ns deltas from server receipt — which the client re-anchors
// into its own timeline (deltas, never wall clocks, so host skew is
// irrelevant).
func (c *srvConn) result(reqID uint64, status byte, sp *obs.Span, payload func(*enc)) {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	e.u8(opResult)
	e.u64(reqID)
	e.u8(status)
	if payload != nil {
		payload(e)
	}
	if sp != nil {
		sp.Stamp(obs.StageReplyEnqueue)
		e.u64(uint64(nonNeg(sp.Offset(obs.StageChainStart))))
		e.u64(uint64(nonNeg(sp.Offset(obs.StageGrant))))
		e.u64(uint64(nonNeg(sp.Offset(obs.StageReplyEnqueue))))
	}
	c.out.push(e.b, false, sp) // false: the connection is gone, and the reply with it
	encPool.Put(e)
}

// nonNeg floors a stage offset at zero for the wire (an absent stage
// encodes as a zero delta).
func nonNeg(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// handleConn runs one session: handshake, then the request loop. Any read
// error — including the client's Close — is the disconnect path:
// release-on-disconnect frees everything the session held.
func (s *Server) handleConn(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	// Track the socket until it has a session, and bound the handshake:
	// a dialer that never speaks (a port scanner, a stalled client) must
	// neither pin this goroutine forever nor hang Close.
	s.connsMu.Lock()
	select {
	case <-s.stop:
		s.connsMu.Unlock()
		nc.Close()
		return
	default:
	}
	s.preConns[nc] = struct{}{}
	s.connsMu.Unlock()
	nc.SetReadDeadline(time.Now().Add(s.handshakeTimeout()))
	// Buffered reads: a client flush delivers a burst of coalesced frames,
	// which the decode loop slices out of one read syscall instead of two
	// per frame. Deadlines still work — bufio reads through to the socket.
	br := bufio.NewReaderSize(nc, 64<<10)
	c, err := s.handshake(nc, br)
	s.connsMu.Lock()
	delete(s.preConns, nc)
	s.connsMu.Unlock()
	if err != nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// A write error ends the writer only: the read loop notices the
		// broken connection and tears the session down.
		c.out.run(nc, c.ctx.Done(), s.wm, replyFlushed)
	}()
	defer s.dropConn(c)
	// One reusable frame buffer: handleFrame fully decodes each request
	// before returning (acquire parameters are copied into the chain item,
	// everything else is consumed inline), so no frame body outlives its
	// loop iteration.
	var rbuf []byte
	for {
		body, err := readFrameInto(br, &rbuf)
		if err != nil {
			return
		}
		if s.handleFrame(c, body) != nil {
			return
		}
	}
}

// handshake validates the hello frame and registers the session. Reads go
// through the connection's buffered reader; the accept reply is queued for
// the reply writer (started right after), the reject reply written
// directly — no session, no writer.
func (s *Server) handshake(nc net.Conn, br *bufio.Reader) (*srvConn, error) {
	body, err := readFrameInto(br, new([]byte))
	if err != nil {
		return nil, err
	}
	d := dec{b: body}
	op := d.u8()
	reqID := d.u64()
	version := d.u32()
	hash := d.raw(32)
	if d.err != nil || op != opHello {
		return nil, fmt.Errorf("netlock: malformed hello")
	}
	reject := func(msg string) (*srvConn, error) {
		var e enc
		e.u8(opResult)
		e.u64(reqID)
		e.u8(stErr)
		e.str(msg)
		nc.Write(appendFrame(nil, e.b))
		return nil, errors.New(msg)
	}
	if version != protocolVersion {
		return reject(fmt.Sprintf("netlock: protocol version %d, server speaks %d", version, protocolVersion))
	}
	if [32]byte(hash) != s.hash {
		return reject("netlock: database fingerprint mismatch (client built over a different DDB)")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &srvConn{
		id:       s.nextConn.Add(1),
		net:      nc,
		acquires: map[uint64]*chainItem{},
		chains:   map[locktable.InstKey]*acqChain{},
		grants:   map[grantRef]struct{}{},
		ctx:      ctx,
		cancel:   cancel,
		out:      flusher{wake: make(chan struct{}, 1)},
	}
	c.lastRenew.Store(time.Now().UnixNano())
	s.connsMu.Lock()
	select {
	case <-s.stop:
		s.connsMu.Unlock()
		cancel()
		return nil, errors.New("netlock: server stopping")
	default:
	}
	s.conns[c.id] = c
	s.connsMu.Unlock()
	c.result(reqID, stOK, nil, func(e *enc) {
		e.u32(c.id)
		e.u64(uint64(s.lease / time.Millisecond))
	})
	return c, nil
}

// handleFrame dispatches one request. Blocking operations (Acquire) get
// their own goroutine; everything else runs inline — the inner table's
// non-acquire calls complete promptly, and per-connection request order is
// preserved for them.
func (s *Server) handleFrame(c *srvConn, body []byte) error {
	d := dec{b: body}
	op := d.u8()
	reqID := d.u64()
	switch op {
	case opHeartbeat:
		if d.err != nil {
			return d.err
		}
		s.wm.HeartbeatsRecv.Inc()
		c.lastRenew.Store(time.Now().UnixNano())
		c.mu.Lock()
		c.leaseLost = false // a fresh lease; prior grants are gone regardless
		c.mu.Unlock()
		c.result(reqID, stOK, nil, nil)
		return nil

	case opAcquire:
		key := d.key()
		ent := model.EntityID(d.i64())
		mode := d.mode()
		flags := d.u8()
		if d.err != nil {
			return d.err
		}
		if flags&^(acqHolding|acqTry) != 0 {
			return fmt.Errorf("netlock: unknown acquire flags %#x", flags)
		}
		var sp *obs.Span
		if len(d.b) > 0 && d.u8() == 1 {
			// The client sampled this op: time its server-side stages. An
			// unsampled acquire pays exactly this length check.
			sp = s.spans.Start(obs.SpanAcquire, int32(ent))
			sp.Stamp(obs.StageServerRecv)
		}
		s.startAcquire(c, reqID, locktable.Instance{Key: key, Holding: flags&acqHolding != 0}, ent, mode, flags&acqTry != 0, sp)
		return nil

	case opCancel:
		// reqID names the in-flight acquire to withdraw; there is no other
		// payload.
		if d.err != nil {
			return d.err
		}
		c.mu.Lock()
		if it := c.acquires[reqID]; it != nil {
			it.cancelled = true
			it.cancel()
		}
		c.mu.Unlock()
		// No reply: the acquire's own result (stCancelled, or stOK if the
		// grant won the race) is the answer.
		return nil

	case opRelease:
		ent := model.EntityID(d.i64())
		key := d.key()
		if d.err != nil {
			return d.err
		}
		composed := composeKey(c.id, key)
		c.mu.Lock()
		if ch := c.chains[composed]; ch != nil {
			// The instance still has acquires in flight: the release takes
			// its place in the chain behind them, so it executes in program
			// order (see chainItem) — and a release shipped before its
			// acquire's ack finds the grant that acquire recorded. The
			// no-chain case below is ordered by the wire itself — an empty
			// chain means every earlier acquire of this instance already
			// resolved.
			ch.q = append(ch.q, &chainItem{reqID: reqID, key: composed, ent: ent, rel: true})
			c.mu.Unlock()
			return nil
		}
		c.mu.Unlock()
		s.execRelease(c, reqID, composed, ent)
		return nil

	default:
		return fmt.Errorf("netlock: unknown opcode %#x", op)
	}
}

// recordGrant books a granted acquire under c.mu and clears a lease-expiry
// tombstone left for the same ref, which is new: the book answers repeats.
func (s *Server) recordGrant(c *srvConn, ref grantRef) {
	c.grants[ref] = struct{}{}
	if len(c.tombs) > 0 {
		delete(c.tombs, ref)
	}
}

// execRelease frees the grant record the release names — the record its
// own acquire left, since the release runs behind that acquire in the
// instance's wire order (DESIGN.md "Fencing") — and replies. No record
// means the session does not hold the entity *now*: a lease-expiry
// tombstone for the name means the grant was revoked (stStaleFence,
// reported so a late release can see it did not free anything, and
// consumed), and otherwise the release names an acquire that failed or
// was withdrawn (the silent no-op, stOK). An acked release (nonzero
// reqID) always gets its result; a fire-and-forget one (reqID 0, the
// pipelined certified tier) is silent on success and pushes a failure
// back as an unsolicited result naming the instance (client numbering)
// in trailing bytes — the client records it for that instance's commit
// alone. Shared by the inline path and the chain worker.
func (s *Server) execRelease(c *srvConn, reqID uint64, composed locktable.InstKey, ent model.EntityID) {
	st := byte(stOK)
	ref := grantRef{ent: ent, key: composed}
	c.mu.Lock()
	if _, held := c.grants[ref]; held {
		delete(c.grants, ref)
		c.mu.Unlock()
		s.tab.Release(ent, composed)
	} else {
		_, tomb := c.tombs[ref]
		delete(c.tombs, ref)
		c.mu.Unlock()
		if tomb {
			s.wm.FenceRejections.Inc()
			st = stStaleFence
		}
	}
	if reqID != 0 {
		c.result(reqID, st, nil, nil)
	} else if st != stOK {
		// The low 32 bits of a composed key are the client's instance ID.
		local := locktable.InstKey{ID: int(uint32(composed.ID))}
		c.result(0, st, nil, func(e *enc) { e.key(local) })
	}
}

// startAcquire routes one client Acquire into its instance's pipeline
// chain: acquires of one composed instance key enter the inner table
// strictly serially, in wire-arrival order. For a synchronous client this
// is invisible (a session has at most one acquire in flight), but it is
// what makes client-side pipelining sound — a chain's request N+1 cannot
// reach the table before request N resolved, so the reachable lock-table
// states are exactly the synchronous run's and the static certification
// (which assumed program order) still rules out deadlock. Distinct
// instances' chains run fully concurrently, each as one server-side
// worker goroutine blocked in the inner table with a per-request context
// the cancel and revoke paths fire. The mode travels to the inner
// table untouched: grant compatibility (concurrent readers, writer
// exclusion, queue fairness) is entirely the hosted table's decision, so
// remote and in-process sessions blocking on one entity obey one
// discipline. A try acquire takes the same path, except that where the
// blocking one would park it is answered stMiss.
func (s *Server) startAcquire(c *srvConn, reqID uint64, inst locktable.Instance, ent model.EntityID, mode locktable.Mode, try bool, sp *obs.Span) {
	key := inst.Key
	if int(ent) < 0 || int(ent) >= s.ddb.NumEntities() {
		c.result(reqID, stErr, nil, func(e *enc) { e.str(fmt.Sprintf("netlock: entity %d outside the database", ent)) })
		return
	}
	if key.ID < 0 || key.ID > math.MaxUint32 {
		// Session identity composes the client ID into the low 32 bits of
		// the server-side key; an ID outside that range would silently
		// alias another instance, so reject it loudly instead.
		c.result(reqID, stErr, nil, func(e *enc) {
			e.str(fmt.Sprintf("netlock: instance id %d outside the 32-bit session namespace", key.ID))
		})
		return
	}
	composed := composeKey(c.id, key)
	inst.Key = composed
	// Inline fast path: an acquire whose instance has no active chain may
	// try the table non-blocking right here in the read loop, skipping the
	// per-acquire context, the in-flight record, and the chain worker. The
	// no-chain check is race-free — this read-loop goroutine is the only
	// creator of this connection's chains, and composed keys are namespaced
	// per connection — and observing the chain record gone happens-after
	// its last item resolved (runChain deletes it under c.mu), so wire
	// order within the instance is preserved. A failed try queues nothing:
	// a try acquire is answered stMiss, a blocking one falls through to the
	// chain path. So does a repeat of a booked grant, without a try:
	// execAcquire answers it from the book.
	c.mu.Lock()
	_, chained := c.chains[composed]
	_, booked := c.grants[grantRef{ent: ent, key: composed}]
	lost := c.leaseLost
	c.mu.Unlock()
	if lost {
		c.result(reqID, stLeaseExpired, nil, nil)
		return
	}
	if !chained && !booked {
		sp.Stamp(obs.StageChainStart) // inline path: "chain start" is the try itself
		granted, err := s.tab.TryAcquire(inst, ent, mode)
		if err != nil {
			c.result(reqID, stStopped, nil, nil)
			return
		}
		if granted {
			sp.Stamp(obs.StageGrant)
			// Mirror execAcquire's post-grant critical section: the
			// lease or the connection may have died while the grant was
			// minted, in which case it is given back, never recorded.
			c.mu.Lock()
			if c.leaseLost || c.closed {
				dead := c.closed
				c.mu.Unlock()
				s.tab.Release(ent, composed)
				if !dead {
					c.result(reqID, stLeaseExpired, nil, nil)
				}
				return
			}
			s.recordGrant(c, grantRef{ent: ent, key: composed})
			c.mu.Unlock()
			c.result(reqID, stOK, sp, nil)
			return
		}
		if try {
			c.result(reqID, stMiss, nil, nil)
			return
		}
	}
	it := &chainItem{reqID: reqID, key: composed, ent: ent, mode: mode, holding: inst.Holding, try: try, sp: sp, done: make(chan struct{})}
	c.mu.Lock()
	if c.leaseLost {
		// No live lease: the session must heartbeat before it may hold
		// locks again (its earlier grants are already gone).
		c.mu.Unlock()
		c.result(reqID, stLeaseExpired, nil, nil)
		return
	}
	// Registered before it runs: opCancel and revocation must reach an
	// acquire that is still waiting its turn in the chain.
	c.acquires[reqID] = it
	if ch, running := c.chains[composed]; running {
		ch.q = append(ch.q, it)
		c.mu.Unlock()
		return
	}
	c.chains[composed] = &acqChain{}
	c.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runChain(c, composed, it)
	}()
}

// runChain drains one instance's pipeline chain: execute the head, then
// pull the next queued item, until the chain is empty (at which point the
// chain record is retired and a later acquire starts a fresh worker).
// Release items execute unconditionally in their turn (see chainItem).
func (s *Server) runChain(c *srvConn, composed locktable.InstKey, it *chainItem) {
	for {
		if it.rel {
			s.execRelease(c, it.reqID, it.key, it.ent)
		} else {
			s.execAcquire(c, it)
		}
		c.mu.Lock()
		ch := c.chains[composed]
		if len(ch.q) == 0 {
			delete(c.chains, composed)
			c.mu.Unlock()
			return
		}
		it = ch.q[0]
		ch.q = ch.q[1:]
		c.mu.Unlock()
	}
}

// execAcquire runs one chain item to its reply. An item that was
// cancelled or revoked while queued answers without entering the inner
// table — the request never existed as far as the lock space is
// concerned — and so does a repeat of a booked grant, which is granted.
// A try item runs TryAcquire in place of Acquire, and a miss is answered
// stMiss.
func (s *Server) execAcquire(c *srvConn, it *chainItem) {
	reqID, composed, ent := it.reqID, it.key, it.ent
	defer it.cancel()
	c.mu.Lock()
	_, booked := c.grants[grantRef{ent: ent, key: composed}]
	if it.cancelled || it.revoked || c.closed || booked {
		delete(c.acquires, reqID)
		cancelled, revoked, dead := it.cancelled, it.revoked, c.closed
		c.mu.Unlock()
		switch {
		case dead:
		case cancelled:
			c.result(reqID, stCancelled, nil, nil)
		case revoked:
			c.result(reqID, stLeaseExpired, nil, nil)
		default: // booked
			it.sp.Stamp(obs.StageChainStart)
			it.sp.Stamp(obs.StageGrant)
			c.result(reqID, stOK, it.sp, nil)
		}
		return
	}
	c.mu.Unlock()
	it.sp.Stamp(obs.StageChainStart) // may overwrite a failed inline try's stamp with the real chain start
	inst := locktable.Instance{Key: composed, Holding: it.holding}
	granted, err := true, error(nil)
	if it.try {
		granted, err = s.tab.TryAcquire(inst, ent, it.mode)
	} else {
		err = s.tab.Acquire(it, inst, ent, it.mode)
	}
	granted = granted && err == nil
	if granted {
		it.sp.Stamp(obs.StageGrant)
	}
	// Atomically retire the in-flight record and decide the outcome
	// under the connection mutex: the revoke path sees either the
	// pending record (and cancels it) or the recorded grant (and
	// releases it) — never a gap.
	c.mu.Lock()
	delete(c.acquires, reqID)
	cancelled, revoked, dead := it.cancelled, it.revoked, c.closed
	recorded := granted && !cancelled && !revoked && !dead
	if recorded {
		s.recordGrant(c, grantRef{ent: ent, key: composed})
	}
	c.mu.Unlock()
	if granted && !recorded {
		// A grant raced a cancel, a revoke, or the teardown: give it back
		// before answering.
		s.tab.Release(ent, composed)
	}
	switch {
	case dead:
	case recorded:
		c.result(reqID, stOK, it.sp, nil)
	case errors.Is(err, locktable.ErrStopped):
		c.result(reqID, stStopped, nil, nil)
	case cancelled:
		c.result(reqID, stCancelled, nil, nil)
	case revoked:
		c.result(reqID, stLeaseExpired, nil, nil)
	case err == nil: // a try the table could not grant
		c.result(reqID, stMiss, nil, nil)
	default:
		c.result(reqID, stErr, nil, func(e *enc) { e.str(err.Error()) })
	}
}
