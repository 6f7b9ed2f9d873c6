package netlock

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/obs"
)

// fuzzHeartbeatID is the request ID of the heartbeat each fuzz input is
// followed by: its reply proves the read loop survived the frame.
const fuzzHeartbeatID = 1<<64 - 16

// frameOf encodes one request body.
func frameOf(build func(*enc)) []byte {
	var e enc
	build(&e)
	return e.b
}

// fuzzSeeds is one v10 frame per request opcode, plus the shapes the
// decoder must reject or treat specially: a sampled acquire, a holding
// reader's acquire, try acquires (a holding one among them), an acquire
// with an unknown flag, releases (acked and fire-and-forget), a truncated
// acquire, opcodes a client never sends, v3 frames (a release with a
// fencing token, the retired withdraw and wound requests), v5 frames (an
// acquire carrying an epoch and a priority, a hello carrying the
// wound-wait byte), v6 frames (an acquire without the holding byte, a
// sampled one whose marker sits where the holding byte now is, a v6
// hello), v7 frames (the retired grant-log request, a hello carrying the
// trace byte) and v9 frames (the retired release-all request, one with a
// count that overstates its entries) a v10 server must not mistake for
// valid ones.
func fuzzSeeds(ents []model.EntityID) [][]byte {
	key := locktable.InstKey{ID: 1}
	acqV6 := func(e *enc) {
		e.u8(opAcquire)
		e.u64(2)
		e.key(key)
		e.i64(int64(ents[0]))
		e.mode(locktable.Exclusive)
	}
	acq := func(e *enc) {
		acqV6(e)
		e.u8(0) // flags
	}
	rel := func(reqID uint64) []byte {
		return frameOf(func(e *enc) {
			e.u8(opRelease)
			e.u64(reqID)
			e.i64(int64(ents[0]))
			e.key(key)
		})
	}
	truncated := frameOf(acq)
	return [][]byte{
		frameOf(func(e *enc) { e.u8(opHeartbeat); e.u64(1) }),
		frameOf(acq),
		frameOf(func(e *enc) { acq(e); e.u8(1) }), // sampled marker
		frameOf(func(e *enc) { // a holding reader
			e.u8(opAcquire)
			e.u64(2)
			e.key(key)
			e.i64(int64(ents[1]))
			e.mode(locktable.Shared)
			e.u8(acqHolding)
		}),
		frameOf(func(e *enc) { acqV6(e); e.u8(acqTry) }),
		frameOf(func(e *enc) { acqV6(e); e.u8(acqTry | acqHolding); e.u8(1) }), // a sampled holding try
		frameOf(func(e *enc) { acqV6(e); e.u8(4) }),                            // an unknown flag
		frameOf(func(e *enc) { e.u8(opCancel); e.u64(2) }),
		rel(3),
		rel(0), // fire-and-forget
		frameOf(func(e *enc) { // v3 release: a fencing token after the key
			e.u8(opRelease)
			e.u64(3)
			e.i64(int64(ents[0]))
			e.key(key)
			e.u64(7)
		}),
		frameOf(func(e *enc) { // v9 release-all, retired
			e.u8(0x05)
			e.u64(4)
			e.key(key)
			e.u32(2)
			e.i64(int64(ents[0]))
			e.i64(int64(ents[1]))
		}),
		frameOf(func(e *enc) { e.u8(0x05); e.u64(4); e.key(key); e.u32(1 << 20) }),        // v9 release-all, retired
		frameOf(func(e *enc) { e.u8(0x06); e.u64(5); e.i64(int64(ents[1])); e.key(key) }), // v3 withdraw, retired
		frameOf(func(e *enc) { e.u8(0x07); e.u64(6); e.key(key) }),                        // v3 wound, retired
		frameOf(func(e *enc) { e.u8(0x08); e.u64(7) }),                                    // v4 snapshot, retired
		frameOf(func(e *enc) { // v5 acquire: key epoch and priority ahead of the entity
			e.u8(opAcquire)
			e.u64(2)
			e.i64(int64(key.ID))
			e.i64(3) // epoch
			e.i64(1) // priority
			e.i64(int64(ents[0]))
			e.mode(locktable.Exclusive)
		}),
		frameOf(func(e *enc) { // v5 hello: the wound-wait byte ahead of the trace byte
			e.u8(opHello)
			e.u64(9)
			e.u32(5)
			e.boolean(true) // wound-wait
			e.boolean(false)
			e.raw(make([]byte, 32))
		}),
		frameOf(acqV6), // v6 acquire: no holding byte
		frameOf(func(e *enc) { acqV6(e); e.u8(1) }), // v6 sampled acquire: the marker reads as holding
		frameOf(func(e *enc) { // v6 hello
			e.u8(opHello)
			e.u64(9)
			e.u32(6)
			e.boolean(false)
			e.raw(make([]byte, 32))
		}),
		frameOf(func(e *enc) { e.u8(0x09); e.u64(8) }), // v7 grant log, retired
		frameOf(func(e *enc) { // v7 hello: the trace byte ahead of the hash
			e.u8(opHello)
			e.u64(9)
			e.u32(7)
			e.boolean(false)
			e.raw(make([]byte, 32))
		}),
		truncated[:len(truncated)-3],
		frameOf(func(e *enc) { e.u8(opHello); e.u64(9); e.u32(protocolVersion) }),
		frameOf(func(e *enc) { e.u8(opResult); e.u64(10); e.u8(stOK) }),
		{},
	}
}

// pipeSession hands the server one end of an in-memory loopback pipe as a
// freshly accepted connection and completes the handshake on the other.
func pipeSession(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	cli, sc := net.Pipe()
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.handleConn(sc)
	}()
	hash := DDBHash(srv.ddb)
	cli.SetDeadline(time.Now().Add(10 * time.Second))
	hello := frameOf(func(e *enc) {
		e.u8(opHello)
		e.u64(1)
		e.u32(protocolVersion)
		e.raw(hash[:])
	})
	if _, err := cli.Write(appendFrame(nil, hello)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	body, err := readFrameInto(cli, new([]byte))
	if err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	d := dec{b: body}
	if d.u8() != opResult || d.u64() != 1 || d.u8() != stOK || d.err != nil {
		t.Fatalf("handshake rejected: %x", body)
	}
	return cli
}

// FuzzHandleFrame feeds arbitrary request bodies to the server's frame
// handler on a handshaken loopback connection. Whatever the body, the
// server must not panic (the test process would die), must not hang (the
// heartbeat queued behind the body is answered, or the connection is
// dropped, within the deadline), and a malformed frame may drop only its
// own connection: a second, healthy client keeps being served. The seed
// corpus runs under plain `go test`; fuzz actively with
// `go test -run '^$' -fuzz FuzzHandleFrame -fuzztime 10s ./internal/netlock`.
func FuzzHandleFrame(f *testing.F) {
	ddb := model.NewDDB()
	ents := []model.EntityID{ddb.MustEntity("x", "s1"), ddb.MustEntity("y", "s2")}
	srv, err := NewServer(ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	healthy, err := Dial(srv.Addr(), ddb, locktable.Config{}, DialOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(healthy.Close)
	for _, body := range fuzzSeeds(ents) {
		f.Add(body)
	}
	heartbeat := frameOf(func(e *enc) { e.u8(opHeartbeat); e.u64(fuzzHeartbeatID) })

	f.Fuzz(func(t *testing.T, body []byte) {
		conn := pipeSession(t, srv)
		defer conn.Close()
		hung := func(err error) {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("server neither answered the heartbeat nor dropped the connection after frame %x", body)
			}
		}
		// A pipe write returns once the server has read it; any other write
		// error means the server already dropped the connection.
		_, err := conn.Write(appendFrame(nil, body))
		if err == nil {
			_, err = conn.Write(appendFrame(nil, heartbeat))
		}
		hung(err)
		for err == nil {
			var reply []byte
			reply, err = readFrameInto(conn, new([]byte))
			hung(err)
			if err != nil {
				break // dropped: the frame was malformed
			}
			d := dec{b: reply}
			if d.u8() == opResult && d.u64() == fuzzHeartbeatID {
				break // the read loop is alive past the frame
			}
		}
		if err := renewLease(healthy); err != nil {
			t.Fatalf("frame %x on one connection broke another: %v", body, err)
		}
	})
}

// TestRetiredOpcodesEndConnection: a request with a retired opcode —
// withdraw and wound (0x06, 0x07, gone in v4), snapshot (0x08, gone in
// v5), grant log (0x09, gone in v8), release-all (0x05, gone in v10) — is
// an unknown opcode: the server drops that connection instead of
// answering the heartbeat behind it.
func TestRetiredOpcodesEndConnection(t *testing.T) {
	ddb, _ := testDDB(t, 1)
	srv := startServer(t, ddb, locktable.Config{}, ServerOptions{Lease: time.Minute})
	heartbeat := frameOf(func(e *enc) { e.u8(opHeartbeat); e.u64(fuzzHeartbeatID) })
	for _, op := range []byte{0x05, 0x06, 0x07, 0x08, 0x09} {
		conn := pipeSession(t, srv)
		_, err := conn.Write(appendFrame(nil, frameOf(func(e *enc) { e.u8(op); e.u64(5) })))
		if err == nil {
			_, err = conn.Write(appendFrame(nil, heartbeat))
		}
		for err == nil {
			var reply []byte
			if reply, err = readFrameInto(conn, new([]byte)); err == nil {
				if d := (dec{b: reply}); d.u8() == opResult && d.u64() == fuzzHeartbeatID {
					t.Fatalf("opcode %#x: the server kept serving the connection", op)
				}
			}
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("opcode %#x: the server neither dropped the connection nor answered", op)
		}
		conn.Close()
	}
}

// fuzzAcquireID is the request ID of the one acquire a fresh client sends
// after its handshake (which uses 1): the seed replies address it.
const fuzzAcquireID = 2

// replyInput is one fuzz input for the client's read loop: two reply
// bodies, each sent as a well-formed frame, then raw bytes for the frame
// reader itself.
type replyInput struct{ first, second, tail []byte }

// replySeeds cover v6 grants with and without a span trailer, a v3 grant
// whose fencing token shifts the trailer, every acquire status (a try's
// miss included), failure
// pushes naming an instance, v5 wound pushes (0x81, retired in v6), and
// the framings the reader must reject.
func replySeeds() []replyInput {
	result := func(reqID uint64, status byte, payload func(*enc)) []byte {
		return frameOf(func(e *enc) {
			e.u8(opResult)
			e.u64(reqID)
			e.u8(status)
			if payload != nil {
				payload(e)
			}
		})
	}
	grant := func(trailer ...uint64) []byte {
		return result(fuzzAcquireID, stOK, func(e *enc) {
			for _, v := range trailer {
				e.u64(v)
			}
		})
	}
	push := func(status byte) []byte {
		return result(0, status, func(e *enc) { e.key(locktable.InstKey{ID: 1}) })
	}
	return []replyInput{
		{first: grant()},
		{first: grant(100, 200, 300)},    // span trailer: chain start, grant, reply enqueue
		{first: grant(7)},                // a trailer too short to read
		{first: grant(1, 100, 200, 300)}, // v3: fencing token ahead of the span trailer
		{first: push(stStaleFence), second: grant()},
		{first: push(stLeaseExpired), second: push(0x77)},
		{first: result(0, stStaleFence, nil)}, // a push naming no instance
		{first: frameOf(func(e *enc) { e.u8(0x81); e.i64(1) }), second: result(fuzzAcquireID, 0x01, nil)}, // v3's wounded status, unknown to v4
		{first: frameOf(func(e *enc) { e.u8(0x81); e.i64(1) }), second: grant()},                          // a v5 wound push, then a grant
		{first: result(fuzzAcquireID, stErr, func(e *enc) { e.str("boom") })},
		{first: result(fuzzAcquireID, stCancelled, nil)},
		{first: result(fuzzAcquireID, stLeaseExpired, nil)},
		{first: result(fuzzAcquireID, stMiss, nil)}, // a try's miss, answering a blocking acquire
		{first: result(fuzzAcquireID, 0x42, nil)},
		{first: result(99, stOK, nil), second: grant()}, // a reply to no request
		{first: grant(), second: grant()},               // a duplicate reply
		{first: frameOf(func(e *enc) { e.u8(0x33) })},
		{tail: []byte{0xff, 0xff, 0xff, 0xff}},
		{tail: []byte{0, 0, 0, 100, opResult, 0}},
		{},
	}
}

// fakeHandshake plays the server's side of the handshake on conn.
func fakeHandshake(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := readFrameInto(conn, new([]byte)); err != nil {
		return err
	}
	_, err := conn.Write(appendFrame(nil, frameOf(func(e *enc) {
		e.u8(opResult)
		e.u64(1)
		e.u8(stOK)
		e.u32(1)                                // connection id
		e.u64(uint64(time.Hour.Milliseconds())) // lease: no heartbeat fires mid-input
	})))
	return err
}

// FuzzClientReplies feeds arbitrary replies to the client's read loop. A
// test-owned listener plays the server: it completes the handshake, reads
// the client's one pending (sampled) acquire, writes the fuzzed frames
// and raw tail, and hangs up. Whatever the bytes, the client must not
// panic, the pending Wait must return within 10 s with an outcome of the
// Table vocabulary, and the client's books must never show a negative
// Held. Fuzz actively with
// `go test -run '^$' -fuzz FuzzClientReplies -fuzztime 10s ./internal/netlock`.
func FuzzClientReplies(f *testing.F) {
	ddb := model.NewDDB()
	x := ddb.MustEntity("x", "s1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })
	ring := obs.NewSpanRing(16)
	for _, in := range replySeeds() {
		f.Add(in.first, in.second, in.tail)
	}

	f.Fuzz(func(t *testing.T, first, second, tail []byte) {
		stream := append(appendFrame(appendFrame(nil, first), second), tail...)
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				accepted <- nil
				return
			}
			if fakeHandshake(conn) != nil {
				conn.Close()
				conn = nil
			}
			accepted <- conn
		}()
		c, err := Dial(ln.Addr().String(), ddb, locktable.Config{}, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conn := <-accepted
		if conn == nil {
			t.Fatal("fake server: handshake failed")
		}
		defer conn.Close()

		sp := ring.Start(obs.SpanAcquire, int32(x))
		inst := locktable.Instance{Key: locktable.InstKey{ID: 1}, Span: sp}
		comp := c.AcquireAsync(inst, x, locktable.Exclusive)
		req, err := readFrameInto(conn, new([]byte))
		if err != nil {
			t.Fatalf("fake server: reading the acquire: %v", err)
		}
		if d := (dec{b: req}); d.u8() != opAcquire || d.u64() != fuzzAcquireID {
			t.Fatalf("fake server: first request %x is not acquire #%d", req, fuzzAcquireID)
		}
		conn.Write(stream) // fails only once the client dropped the connection
		conn.Close()

		done := make(chan error, 1)
		go func() { done <- comp.Wait(context.Background()) }()
		select {
		case err := <-done:
			switch {
			case err == nil:
				sp.Commit() // what a session does with a granted op's span: re-anchor the server deltas
			case errors.Is(err, locktable.ErrStopped), errors.Is(err, ErrLeaseExpired),
				strings.HasPrefix(err.Error(), "netlock: "):
			default:
				t.Fatalf("pending acquire returned %v, outside the Table vocabulary, after stream %x", err, stream)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pending acquire never returned after stream %x", stream)
		}
		c.Close()
		if held := c.TableMetrics().Snapshot().Held; held < 0 {
			t.Fatalf("client books Held = %d after stream %x", held, stream)
		}
	})
}
