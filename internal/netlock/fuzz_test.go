package netlock

import (
	"errors"
	"net"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
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

// fuzzSeeds is one frame per request opcode, plus the shapes the decoder
// must reject or treat specially: a sampled acquire, token-0 releases
// (acked and fire-and-forget), a truncated acquire, a release-all whose
// count overstates its entries, and opcodes a client never sends.
func fuzzSeeds(ents []model.EntityID) [][]byte {
	key := locktable.InstKey{ID: 1}
	acq := func(e *enc) {
		e.u8(opAcquire)
		e.u64(2)
		e.key(key)
		e.i64(1)
		e.i64(int64(ents[0]))
		e.mode(locktable.Exclusive)
	}
	rel := func(reqID, fence uint64) []byte {
		return frameOf(func(e *enc) {
			e.u8(opRelease)
			e.u64(reqID)
			e.i64(int64(ents[0]))
			e.key(key)
			e.u64(fence)
		})
	}
	truncated := frameOf(acq)
	return [][]byte{
		frameOf(func(e *enc) { e.u8(opHeartbeat); e.u64(1) }),
		frameOf(acq),
		frameOf(func(e *enc) { acq(e); e.u8(1) }), // sampled marker
		frameOf(func(e *enc) { e.u8(opCancel); e.u64(2) }),
		rel(3, 7),
		rel(3, 0), // token 0: the instance's own in-flight grant
		rel(0, 0), // fire-and-forget token 0
		frameOf(func(e *enc) {
			e.u8(opReleaseAll)
			e.u64(4)
			e.key(key)
			e.u32(2)
			e.i64(int64(ents[0]))
			e.u64(1)
			e.i64(int64(ents[1]))
			e.u64(0)
		}),
		frameOf(func(e *enc) { e.u8(opReleaseAll); e.u64(4); e.key(key); e.u32(1 << 20) }),
		frameOf(func(e *enc) { e.u8(opWithdraw); e.u64(5); e.i64(int64(ents[1])); e.key(key) }),
		frameOf(func(e *enc) { e.u8(opWound); e.u64(6); e.key(key) }),
		frameOf(func(e *enc) { e.u8(opSnapshot); e.u64(7) }),
		frameOf(func(e *enc) { e.u8(opGrantLog); e.u64(8) }),
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
		e.boolean(false) // woundWait
		e.boolean(false) // trace
		e.raw(hash[:])
	})
	if err := writeFrame(cli, hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	body, err := readFrame(cli)
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
		err := writeFrame(conn, body)
		if err == nil {
			err = writeFrame(conn, heartbeat)
		}
		hung(err)
		for err == nil {
			var reply []byte
			reply, err = readFrame(conn)
			hung(err)
			if err != nil {
				break // dropped: the frame was malformed
			}
			d := dec{b: reply}
			if d.u8() == opResult && d.u64() == fuzzHeartbeatID {
				break // the read loop is alive past the frame
			}
		}
		if _, err := healthy.call(func(reqID uint64, e *enc) {
			e.u8(opHeartbeat)
			e.u64(reqID)
		}); err != nil {
			t.Fatalf("frame %x on one connection broke another: %v", body, err)
		}
	})
}
