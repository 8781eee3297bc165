package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

// DefaultMuxInflight is the in-flight stream window a pooled MuxConn
// asks for, and a bare one when the caller does not specify it. The
// negotiated window is the minimum of this and the server's advertised
// cap.
const DefaultMuxInflight = 256

// muxMaxSlots bounds the stream window: stream IDs pack a 16-bit slot
// index and a 16-bit generation, so one connection can hold at most
// 65535 concurrent streams — far beyond any sane window.
const muxMaxSlots = 1 << 16

// ErrMuxUnsupported reports that the peer answered the Hello handshake
// with an error frame — it predates the v2 multiplexed framing. The
// connection is still healthy and usable in v1 lockstep mode.
var ErrMuxUnsupported = errors.New("transport: peer does not support multiplexed framing")

// errMuxClosed is the terminal error of a deliberately closed MuxConn.
var errMuxClosed = errors.New("transport: mux connection closed")

// muxResult is what the reader hands a waiting caller: the reply type
// and payload length (the payload itself has been copied into the
// caller's registered scratch).
type muxResult struct {
	t wire.MsgType
	n int
}

// muxSlot is one stream's rendezvous state. Slots are reused across
// calls: gen increments at every release so a reply to a cancelled
// stream that arrives after the slot has been re-armed is recognized as
// stale and dropped. ch is allocated once and carries at most one
// result per arming, so the steady-state call path performs no heap
// allocations.
type muxSlot struct {
	gen     uint32 // wrapped to 16 bits when packed into a stream ID
	armed   bool
	scratch []byte
	ch      chan muxResult
}

// MuxConn is a client-side multiplexed connection: many requests in
// flight at once over one TCP connection, with one writer goroutine
// coalescing queued frames into single Write calls and one reader
// goroutine routing replies back to callers by stream ID. A per-call
// context deadline cancels only that stream — the connection survives —
// while a transport error fails every in-flight call and marks the
// connection dead.
//
// Create with NewMuxConn, which performs the Hello/HelloAck feature
// handshake; a peer that predates the v2 framing yields
// ErrMuxUnsupported and the caller falls back to lockstep exchanges.
type MuxConn struct {
	conn net.Conn
	br   *bufio.Reader

	// slots is the in-flight table, fixed at the negotiated window;
	// freeSlots holds the indices of unarmed slots and doubles as the
	// window semaphore.
	slots     []muxSlot
	freeSlots chan uint32
	// tmu guards slot state transitions (arm, claim, cancel) and the
	// payload copy into a caller's scratch.
	tmu sync.Mutex

	// out queues encoded request frames for the writer goroutine, which
	// flushes each batch with one Write.
	out *frameBatch

	flushes atomic.Int64
	frames  atomic.Int64
	// coalesced counts frames that shared a Write with at least one
	// other frame — the syscalls saved by batching.
	coalesced atomic.Int64
	stale     atomic.Int64

	dead    chan struct{}
	deadErr error
	once    sync.Once
}

// NewMuxConn negotiates multiplexed framing on conn and starts the
// reader and writer goroutines. maxInflight is the desired stream
// window (0 = DefaultMuxInflight); the effective window is the minimum
// of it and the server's advertised cap. The handshake runs under ctx's
// deadline. On ErrMuxUnsupported the connection has completed a clean
// v1 exchange and remains usable in lockstep mode; on any other error
// its state is unknown and the caller should close it.
func NewMuxConn(ctx context.Context, conn net.Conn, maxInflight int) (*MuxConn, error) {
	if maxInflight <= 0 {
		maxInflight = DefaultMuxInflight
	}
	if maxInflight >= muxMaxSlots {
		maxInflight = muxMaxSlots - 1
	}
	br := bufio.NewReaderSize(conn, 4096)
	hello := wire.Hello{MaxVersion: wire.VersionMux, MaxInflight: uint32(maxInflight)}
	rt, rp, _, err := roundtripInto(ctx, conn, br, wire.TypeHello, hello.Encode(nil), nil)
	if err != nil {
		if isWireError(err) {
			// The peer parsed the frame and refused the type: a pre-mux
			// server. The exchange completed cleanly, so the connection
			// is good for v1 lockstep use.
			return nil, ErrMuxUnsupported
		}
		return nil, fmt.Errorf("transport: mux handshake: %w", err)
	}
	if rt != wire.TypeHelloAck {
		return nil, fmt.Errorf("transport: mux handshake answered %v, want HelloAck", rt)
	}
	ack, err := wire.DecodeHelloAck(rp)
	if err != nil {
		return nil, fmt.Errorf("transport: mux handshake: %w", err)
	}
	if ack.Version != wire.VersionMux {
		return nil, ErrMuxUnsupported
	}
	if ack.MaxInflight > 0 && int(ack.MaxInflight) < maxInflight {
		maxInflight = int(ack.MaxInflight)
	}
	if maxInflight < 1 {
		maxInflight = 1
	}
	// The reader goroutine blocks on the socket indefinitely; per-call
	// deadlines live in each caller's context, not on the conn.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("transport: clearing handshake deadline: %w", err)
	}
	c := &MuxConn{
		conn:      conn,
		br:        br,
		slots:     make([]muxSlot, maxInflight),
		freeSlots: make(chan uint32, maxInflight),
		dead:      make(chan struct{}),
		out:       newFrameBatch(),
	}
	for i := range c.slots {
		c.slots[i].ch = make(chan muxResult, 1)
		c.freeSlots <- uint32(i)
	}
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// Dead reports whether the connection has failed; a dead MuxConn never
// recovers and should be discarded.
func (c *MuxConn) Dead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// MuxStats is a point-in-time snapshot of one connection's traffic.
type MuxStats struct {
	// Flushes is the number of Write syscalls the writer issued; Frames
	// the frames they carried. Coalesced counts frames that shared a
	// flush with at least one other — Frames-Flushes when every flush
	// is full.
	Flushes, Frames, Coalesced int64
	// Stale counts reply frames dropped because their stream had been
	// cancelled or superseded.
	Stale int64
}

// Stats returns the connection's traffic counters.
func (c *MuxConn) Stats() MuxStats {
	return MuxStats{
		Flushes:   c.flushes.Load(),
		Frames:    c.frames.Load(),
		Coalesced: c.coalesced.Load(),
		Stale:     c.stale.Load(),
	}
}

// Close tears the connection down: every in-flight call fails with
// errMuxClosed and the socket is closed. Safe to call twice.
func (c *MuxConn) Close() error {
	c.teardown(errMuxClosed)
	return nil
}

// teardown marks the connection dead exactly once: records err, closes
// the socket (unblocking the reader), ends the writer — unsent frames
// are dropped — and fails every armed stream.
func (c *MuxConn) teardown(err error) {
	c.once.Do(func() {
		c.deadErr = err
		close(c.dead)
		c.conn.Close()
		c.out.close(true)
		c.tmu.Lock()
		for i := range c.slots {
			e := &c.slots[i]
			if e.armed {
				e.armed = false
				e.ch <- muxResult{n: -1}
			}
		}
		c.tmu.Unlock()
	})
}

// connErr returns the terminal error once the connection is dead.
func (c *MuxConn) connErr() error {
	<-c.dead
	return c.deadErr
}

// release returns a slot to the free list: drains any stray result
// token, bumps the generation so late replies to this arming are
// recognized as stale, and frees the window slot.
func (c *MuxConn) release(e *muxSlot, idx uint32) {
	select {
	case <-e.ch:
	default:
	}
	c.tmu.Lock()
	e.gen = (e.gen + 1) & (muxMaxSlots - 1)
	c.tmu.Unlock()
	c.freeSlots <- idx
}

// CallInto performs one request/response exchange over an open stream,
// with Pool.CallInto's memory contract: the request is framed into the
// shared write batch, the reply is copied into buf (grown as needed),
// and the returned payload aliases the returned scratch. A wire.Error
// reply is decoded and returned as an error with the connection — and
// the scratch — still healthy. A context deadline cancels only this
// stream; the connection keeps serving others.
func (c *MuxConn) CallInto(ctx context.Context, t wire.MsgType, payload, buf []byte) (wire.MsgType, []byte, []byte, error) {
	if len(payload) > wire.MaxPayload {
		return 0, nil, buf, fmt.Errorf("transport: sending %v: %w", t, wire.ErrFrameTooBig)
	}
	var idx uint32
	select {
	case idx = <-c.freeSlots:
	case <-c.dead:
		return 0, nil, buf, fmt.Errorf("transport: mux call %v: %w", t, c.deadErr)
	case <-ctx.Done():
		return 0, nil, buf, fmt.Errorf("transport: mux call %v waiting for a stream: %w", t, ctx.Err())
	}
	e := &c.slots[idx]
	c.tmu.Lock()
	e.armed = true
	e.scratch = buf
	stream := e.gen<<16 | idx
	c.tmu.Unlock()
	if !c.out.add(t, stream, payload) {
		// The writer is dead; the teardown sweep may or may not have
		// seen this arming, so disarm defensively before releasing.
		c.tmu.Lock()
		e.armed = false
		buf = e.scratch
		c.tmu.Unlock()
		c.release(e, idx)
		return 0, nil, buf[:0], fmt.Errorf("transport: mux call %v: %w", t, c.connErr())
	}
	var res muxResult
	select {
	case res = <-e.ch:
	case <-ctx.Done():
		c.tmu.Lock()
		if e.armed {
			// The reply has not arrived: cancel the stream. The
			// generation bump in release makes the eventual reply stale.
			e.armed = false
			buf = e.scratch
			c.tmu.Unlock()
			c.release(e, idx)
			return 0, nil, buf[:0], fmt.Errorf("transport: mux call %v: %w", t, ctx.Err())
		}
		// The reader claimed the slot concurrently; the result token is
		// already in flight and arrives without further IO.
		c.tmu.Unlock()
		res = <-e.ch
	}
	buf = e.scratch
	c.release(e, idx)
	if res.n < 0 {
		return 0, nil, buf[:0], fmt.Errorf("transport: mux call %v: %w", t, c.deadErr)
	}
	rt, rp := res.t, buf[:res.n]
	if rt == wire.TypeError {
		werr, derr := wire.DecodeError(rp)
		if derr != nil {
			return 0, nil, buf[:0], fmt.Errorf("transport: undecodable remote error: %w", derr)
		}
		return rt, nil, buf[:0], werr
	}
	return rt, rp, buf[:0], nil
}

// readLoop routes reply frames to their streams. The payload is copied
// into the caller's registered scratch under tmu — a memcpy, never IO —
// so a cancelling caller is delayed at most one copy, not one read.
func (c *MuxConn) readLoop() {
	var rbuf []byte
	for {
		t, stream, payload, nb, err := wire.ReadMuxFrameInto(c.br, rbuf)
		if err != nil {
			c.teardown(fmt.Errorf("transport: mux read: %w", err))
			return
		}
		idx, gen := stream&(muxMaxSlots-1), stream>>16
		if int(idx) >= len(c.slots) {
			// A stream we never opened: tolerate and drop, like a stale
			// reply — tearing the conn down would amplify a peer bug.
			c.stale.Add(1)
			rbuf = nb
			continue
		}
		e := &c.slots[idx]
		c.tmu.Lock()
		if !e.armed || e.gen != gen {
			c.tmu.Unlock()
			c.stale.Add(1)
			rbuf = nb
			continue
		}
		e.armed = false
		e.scratch = append(e.scratch[:0], payload...)
		c.tmu.Unlock()
		e.ch <- muxResult{t: t, n: len(payload)}
		rbuf = nb
	}
}

// writeLoop flushes the request batch: whatever callers enqueued since
// the last flush goes out in one Write.
func (c *MuxConn) writeLoop() {
	var buf []byte
	for {
		var frames int
		var ok bool
		if buf, frames, ok = c.out.take(buf); !ok {
			return
		}
		// Counted before the Write: a caller whose reply is already back
		// must find its request in Stats.
		c.flushes.Add(1)
		c.frames.Add(int64(frames))
		if frames > 1 {
			c.coalesced.Add(int64(frames))
		}
		if _, err := c.conn.Write(buf); err != nil {
			c.teardown(fmt.Errorf("transport: mux write: %w", err))
			return
		}
	}
}

// frameBatch is the coalescing write queue under both ends of a
// multiplexed connection: any number of goroutines add encoded frames,
// one writer takes everything queued since its last flush and sends it
// with a single Write. Under concurrent load a batch holds many frames —
// N small writes collapse into one syscall.
type frameBatch struct {
	mu   sync.Mutex
	cond sync.Cond
	// pending is the batch being filled, frames its frame count; spare
	// is the previous batch's buffer, swapped in at the next take.
	pending, spare []byte
	frames         int
	closed         bool
}

func newFrameBatch() *frameBatch {
	b := new(frameBatch)
	b.cond.L = &b.mu
	return b
}

// add queues one frame and wakes the writer. It reports false, queueing
// nothing, once the batch is closed.
func (b *frameBatch) add(t wire.MsgType, stream uint32, payload []byte) bool {
	b.mu.Lock()
	open := !b.closed
	if open {
		b.pending = wire.AppendMuxFrame(b.pending, t, stream, payload)
		b.frames++
		b.cond.Signal()
	}
	b.mu.Unlock()
	return open
}

// take blocks until frames are queued and returns them — whole frames, in
// the order they were added — with their count. flushed is the buffer the
// previous take returned, handed back for reuse. ok is false once the
// batch is closed and nothing is left to hand out.
func (b *frameBatch) take(flushed []byte) (batch []byte, frames int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A burst of large frames must not pin its high-water mark in the
	// double buffer forever.
	if cap(flushed) > arenaMaxRetainBytes {
		flushed = nil
	}
	b.spare = flushed[:0]
	for b.frames == 0 {
		if b.closed {
			return nil, 0, false
		}
		b.cond.Wait()
	}
	// Yield before sealing the batch until a scheduler pass adds no new
	// frames: goroutines that are already runnable get to add theirs
	// first, so a burst leaves in one Write instead of N. The batch is
	// capped at muxFlushBatch — the syscall amortization has flattened out
	// by then, and an earlier flush keeps the first frame of a large wave
	// from waiting on the last. Costs one scheduler pass when the
	// connection is idle, saves N-1 syscalls when it is busy.
	for prev := 0; b.frames > prev && b.frames < muxFlushBatch; {
		prev = b.frames
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	batch, frames = b.pending, b.frames
	b.pending, b.frames = b.spare[:0], 0
	// No frames here means a close with drop landed during the yield.
	return batch, frames, frames > 0
}

// close ends the batch: add refuses from now on and the writer's take
// returns false — after handing out the frames still queued, or at once,
// dropping them, when drop is set (the connection is dead). Safe to call
// more than once.
func (b *frameBatch) close(drop bool) {
	b.mu.Lock()
	b.closed = true
	if drop {
		b.pending, b.frames = b.pending[:0], 0
	}
	b.cond.Signal()
	b.mu.Unlock()
}

// arenaMaxRetainBytes mirrors the wire arena's retention cap for buffers
// that outlive one exchange.
const arenaMaxRetainBytes = 1 << 20

// muxFlushBatch is the frame count at which a writer stops collecting
// and flushes: past this the per-frame syscall saving is negligible,
// while the wait for stragglers only adds head-of-line latency.
const muxFlushBatch = 8
