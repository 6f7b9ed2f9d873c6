// Package netlock is the cross-process lock-table backend: a server that
// hosts an in-process locktable.Table (the sharded table) behind a
// length-prefixed binary request/response protocol, and a client that
// implements the full locktable.Table interface over the wire. The session
// layer, the service tiers, and the conformance suite run unchanged on
// top of it — the Table interface is the contract, the network is an
// implementation detail behind it.
//
// What the in-process backends get for free, the networked one must earn:
//
//   - Per-connection session identity. Each connection is a session; the
//     server namespaces client instance keys by connection (the client's
//     instance ID occupies the low 32 bits of the server-side key, the
//     connection ID the high bits), so engines in different processes can
//     both number their instances from 1 without colliding in the shared
//     table. The hosted table, and any wrapper ServerOptions.New puts
//     around it, sees only composed keys.
//
//   - Leases. A holder in another process can crash, hang, or partition
//     away while holding locks. Every connection holds a lease, renewed by
//     heartbeats; when a connection disconnects, or stays silent past its
//     lease, the server revokes it — pending acquires are withdrawn and
//     granted locks are released to their next waiters.
//
//   - Fencing. Revocation alone is not enough: a revoked holder's release,
//     already in flight (or sent after the holder un-stalls), must not
//     free a lock the server has since re-granted to someone else. A
//     release names its owner — (connection, entity, instance key), no
//     grant number — and the server frees the grant record that name
//     has: composed keys are never reused and a template locks each
//     entity once, so one name has at most one record, and the
//     release runs behind the instance's earlier acquires in wire order
//     (chained while one is in flight), so the record it meets is its
//     own acquire's. No record is the no-op of an acquire that failed or
//     was withdrawn. A lease expiry leaves a tombstone per revoked grant,
//     and the first release naming that grant consumes it as
//     ErrStaleFence, so a lost lease fails the instance's commit and a
//     late release frees nothing. DESIGN.md "Fencing" has the argument.
//
// Context cancellation maps to withdrawal exactly as in process: a
// cancelled client Acquire sends a cancel for its in-flight request, the
// server cancels the server-side acquire context (which withdraws the
// request from the inner table), and if a grant raced the cancellation the
// client releases it before returning — the instance holds nothing on a
// non-nil return.
package netlock

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
)

// protocolVersion guards against skew between client and server builds.
// Version history:
//
//	1 — exclusive-only locks (PR 4).
//	2 — shared/exclusive lock modes: opAcquire carries a mode byte and
//	    grant-log events carry the granted mode. A v1 peer would silently
//	    treat every lock as exclusive (or mis-parse the extra byte), so
//	    the handshake rejects the mismatch instead.
//	3 — token-0 releases: a release may name "the grant this instance's
//	    earlier acquire recorded" instead of a fencing token, and lease
//	    expiry leaves tombstones that fail the next release. A v2 server
//	    would treat a token-0 release of a held entity as stale and leave
//	    the lock held, so the handshake rejects the mismatch.
//	4 — no fencing token: a release names its owner only, and an
//	    unsampled grant reply has no payload. The withdraw (0x06) and
//	    wound (0x07) requests and the wounded status (0x01) are gone,
//	    their values not reused. A v3 peer would mis-frame every release
//	    and grant, so the handshake rejects it.
//	5 — no wait-for snapshot: the snapshot request (0x08) is gone, its
//	    value not reused. A v4 client would send it and lose the
//	    connection to the v5 server's unknown-opcode error, so the
//	    handshake rejects it.
//	6 — no wound-wait: the hello loses its wound-wait byte, an acquire
//	    its priority, every instance key its epoch, and the wound push
//	    (0x81) is gone, its value not reused. A v5 peer would mis-frame
//	    the hello and every acquire, so the handshake rejects it.
//	7 — holding readers: an acquire carries a holding byte after its mode
//	    (locktable.Instance.Holding), and the hosted table lets a holding
//	    instance's shared request pass a queued writer. A v6 peer would
//	    read the byte as the sampled marker, so the handshake rejects it.
//	8 — no grant log: the hello loses its trace byte and the grant-log
//	    request (0x09) is gone, its value not reused; tests record grants
//	    at the hosted table instead (locktabletest.Tap). A v7 peer would
//	    mis-frame the hello, so the handshake rejects it.
//	9 — try acquires: the acquire's holding byte becomes a flags byte
//	    (acqHolding, acqTry), and the server answers a try its hosted
//	    table cannot grant at once with the miss status (0x07), queueing
//	    nothing. A v8 server would read a try as a holding acquire and
//	    park it, so the handshake rejects it.
const protocolVersion = 9

// maxFrame bounds a frame body; larger frames indicate a corrupt stream.
const maxFrame = 16 << 20

// Message opcodes. Client→server requests carry a request ID the matching
// opResult echoes; the server initiates nothing but a reqID-0 result.
const (
	opHello      = 0x01 // version, ddb hash
	opAcquire    = 0x02 // reqID, inst key, entity, mode, flags
	opCancel     = 0x03 // reqID of the in-flight acquire to withdraw
	opRelease    = 0x04 // reqID, entity, inst key
	opReleaseAll = 0x05 // reqID, inst key, n × entity
	opHeartbeat  = 0x0a // reqID (renews the lease)

	opResult = 0x80 // reqID, status, payload per request kind (reqID 0: a fire-and-forget release's failure, inst key)
)

// Result statuses.
const (
	stOK           = 0x00
	stStopped      = 0x02 // server shutting down
	stCancelled    = 0x03 // acquire: withdrawn by the client's cancel
	stStaleFence   = 0x04 // release: its grant was revoked by a lease expiry
	stLeaseExpired = 0x05 // acquire/release: the connection's lease was revoked
	stErr          = 0x06 // payload: error string
	stMiss         = 0x07 // try acquire: not grantable now, nothing queued
)

// Acquire flags, the byte after an acquire's mode.
const (
	acqHolding = 1 << 0 // locktable.Instance.Holding
	acqTry     = 1 << 1 // answer from TryAcquire: granted or stMiss, never parked
)

// ErrStaleFence is returned by a release whose grant is no longer the
// session's: the holder's lease expired and the lock was revoked (and
// possibly re-granted) in the meantime. The release did not free anything.
// (The name predates protocol v4, when releases still carried a fencing
// token.)
var ErrStaleFence = errors.New("netlock: stale release (lease expired; lock revoked)")

// ErrLeaseExpired is returned by a blocked Acquire when the server revoked
// the connection's lease while the request waited: the request was
// withdrawn, and any locks the session held are gone. The connection
// itself may still be alive — the next heartbeat starts a fresh lease —
// but the session's grants did not survive.
var ErrLeaseExpired = errors.New("netlock: lease expired while waiting (request withdrawn, held locks revoked)")

// DDBHash fingerprints a database: sites and entities, names and
// placement, in ID order. Client and server exchange it in the handshake
// so a client built over a different database (entity IDs meaning
// different things) is rejected instead of silently corrupting grants.
func DDBHash(d *model.DDB) [32]byte {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		io.WriteString(h, s)
	}
	writeInt(d.NumSites())
	for s := 0; s < d.NumSites(); s++ {
		writeStr(d.SiteName(model.SiteID(s)))
	}
	writeInt(d.NumEntities())
	for e := 0; e < d.NumEntities(); e++ {
		writeStr(d.EntityName(model.EntityID(e)))
		writeInt(int(d.SiteOf(model.EntityID(e))))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// composeKey namespaces a client instance key by its connection: the
// connection ID occupies the high 32 bits of the server-side instance ID.
// Client instance IDs must fit in 32 bits (engine IDs are small dense
// integers; the handshake documents the bound).
func composeKey(connID uint32, k locktable.InstKey) locktable.InstKey {
	return locktable.InstKey{ID: int(int64(connID)<<32 | int64(uint32(k.ID)))}
}

// appendFrame appends one length-prefixed frame to dst; with
// readFrameInto it is the one frame codec. A flusher keeps its pending
// output as a flat byte buffer it writes in one call, so a frame on the
// hot path costs a memcpy, not a heap-allocated []byte plus a queue slot;
// a handshake writes one appended frame directly.
func appendFrame(dst, body []byte) []byte {
	n := uint32(len(body))
	return append(append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n)), body...)
}

// timerPool recycles the self-fence timers of reply waits that outlast a
// non-blocking receive. Since Go 1.23 a stopped or reset timer delivers no
// stale tick, so a pooled timer is as good as a new one.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// encPool recycles the scratch encoders of the fixed-shape per-op frames
// (requests, status replies): the body is copied into the connection's
// pending buffer by appendFrame, so the encoder is free for reuse the
// moment the enqueue returns.
var encPool = sync.Pool{New: func() any { return &enc{b: make([]byte, 0, 128)} }}

// readFrameInto reads one length-prefixed frame into *buf, growing it as
// needed. The returned slice aliases *buf and is valid only until the
// next call — for read loops that fully consume each frame before the
// next (the per-op hot path reads tens of thousands of small frames a
// second; reusing one buffer removes an allocation per frame). The
// length prefix is read into the buffer too: a header array on the stack
// would escape through the io.Reader call and cost an allocation a frame.
func readFrameInto(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < 64 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("netlock: frame of %d bytes exceeds limit", n)
	}
	if cap(*buf) < int(n) {
		// Grow geometrically: a connection whose frames creep up in size
		// reallocates a logarithmic number of times, not once per step.
		*buf = make([]byte, max(int(n), min(2*cap(*buf), maxFrame)))
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// enc builds a frame body. All integers are big-endian fixed width; the
// messages are small and fixed-shape, so varints would buy nothing.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) raw(p []byte) { e.b = append(e.b, p...) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec consumes a frame body. The first malformed read poisons the decoder;
// callers check err once at the end (a short frame yields zero values, and
// the single check rejects the message).
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errors.New("netlock: truncated frame")
	}
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64    { return int64(d.u64()) }
func (d *dec) boolean() bool { return d.u8() != 0 }
func (d *dec) raw(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.fail()
		return make([]byte, n)
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return ""
	}
	return string(d.raw(n))
}

// mode encodes/decodes a lock mode as one byte.
func (e *enc) mode(m locktable.Mode) { e.u8(byte(m)) }

func (d *dec) mode() locktable.Mode {
	b := d.u8()
	if b > byte(locktable.Shared) {
		d.fail()
		return locktable.Exclusive
	}
	return locktable.Mode(b)
}

// key encodes/decodes an instance key (client-side numbering on the wire;
// composition is server business).
func (e *enc) key(k locktable.InstKey) { e.i64(int64(k.ID)) }

func (d *dec) key() locktable.InstKey { return locktable.InstKey{ID: int(d.i64())} }
