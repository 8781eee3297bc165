package simnet

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// windowPackets bounds the number of written-but-unread packets per
// direction — the virtual in-flight window. A peer that stops reading
// eventually blocks the writer, like a full TCP send buffer.
const windowPackets = 256

// endpoint is the receive side of one direction of a connection: the
// inbox the central scheduler delivers into and Read drains.
type endpoint struct {
	mu sync.Mutex
	// queue[head:] are the delivered, unread packets. Read advances head
	// and rewinds both to the start once it has drained them, so the
	// backing array is reused, not re-sliced away; until a second packet
	// waits unread that array is first, inside the endpoint.
	queue   [][]byte
	head    int
	first   [1][]byte
	pending []byte // partially consumed head packet
	// inflight counts packets written but not yet fully consumed by
	// Read; the sender blocks while it is at windowPackets.
	inflight   int
	eof        bool  // peer closed cleanly; read after drain returns io.EOF
	err        error // connection torn down (reset, kill, fabric closed)
	recvClosed bool  // owning handle closed; arriving data is discarded

	readable chan struct{} // cap 1: signaled on every state change a reader cares about
	space    chan struct{} // cap 1: signaled on every state change a blocked writer cares about
}

func (e *endpoint) init() {
	e.queue = e.first[:0]
	e.readable = make(chan struct{}, 1)
	e.space = make(chan struct{}, 1)
}

// timerPool recycles the timers behind deadline waits and handshake
// sleeps: connections here live for one exchange, so a timer per wait
// is a timer per operation. go.mod is past 1.23, where a stopped or
// reset timer can leave no stale tick in its channel, which is what
// makes handing one from wait to wait safe.
var timerPool sync.Pool

// acquireTimer returns a timer that fires after d.
func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops t and recycles it.
func releaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// untilDeadline returns how long is left before deadline: 0 when there
// is none, and ok false once it has passed.
func untilDeadline(deadline time.Time) (left time.Duration, ok bool) {
	if deadline.IsZero() {
		return 0, true
	}
	left = time.Until(deadline)
	return left, left > 0
}

// waitUntil blocks until wake or closed is signaled or left (no limit
// when 0, as untilDeadline returns it) has passed.
func waitUntil(wake, closed <-chan struct{}, left time.Duration) {
	if left == 0 {
		select {
		case <-wake:
		case <-closed:
		}
		return
	}
	t := acquireTimer(left)
	select {
	case <-wake:
	case <-t.C:
	case <-closed:
	}
	releaseTimer(t)
}

// signal is a non-blocking edge trigger on a capacity-1 channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// fail tears the endpoint down: queued data is discarded (RST
// semantics), blocked readers and writers wake with err.
func (e *endpoint) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.dropLocked()
	e.mu.Unlock()
	signal(e.readable)
	signal(e.space)
}

// dropLocked discards every unread packet and frees the whole window.
// Callers hold e.mu.
func (e *endpoint) dropLocked() {
	clear(e.queue)
	e.queue, e.head, e.pending, e.inflight = e.queue[:0], 0, nil, 0
}

// consumeLocked accounts a fully read packet and frees a window slot.
// Callers hold e.mu.
func (e *endpoint) consumeLocked() {
	if e.inflight > 0 {
		e.inflight--
	}
	signal(e.space)
}

// arrival is one delivery the scheduler makes: the next packet written
// by the handle from, or its FIN when pkt is nil. from names the link
// (from.localIdx → from.remoteIdx) and the receiving endpoint, from.out.
type arrival struct {
	from *conn
	pkt  []byte
}

// fire lands a in its endpoint's inbox. A partition that landed while
// a packet was in flight eats it, and an endpoint that is torn down or
// whose handle is closed discards it, freeing its window slot either
// way; the FIN is always delivered.
func (a arrival) fire() {
	c, in := a.from, a.from.out
	if a.pkt == nil {
		in.mu.Lock()
		in.eof = true
		in.mu.Unlock()
		signal(in.readable)
		return
	}
	cut := c.nw.cut(c.localIdx, c.remoteIdx)
	in.mu.Lock()
	if cut || in.err != nil || in.recvClosed {
		in.consumeLocked()
		in.mu.Unlock()
		return
	}
	in.queue = append(in.queue, a.pkt)
	in.mu.Unlock()
	signal(in.readable)
}

// pairConn ties the two endpoints of a virtual connection together for
// fault injection and registry bookkeeping.
type pairConn struct {
	a, b       *conn // a dialed, b was accepted
	aIdx, bIdx int   // topology host indices of a and b

	resetOnce  sync.Once
	closedEnds atomic.Int32
}

// reset tears both directions down with err — what Partition and Kill
// do to established connections crossing the cut, and what a write into
// a dead host or a closed fabric does.
func (p *pairConn) reset(err error) {
	p.resetOnce.Do(func() {
		p.a.in.fail(err)
		p.b.in.fail(err)
		p.a.nw.dropPair(p)
	})
}

// touches reports whether the connection has an endpoint on host idx.
func (p *pairConn) touches(idx int) bool { return p.aIdx == idx || p.bIdx == idx }

// conn is one endpoint handle of a virtual connection. It implements
// net.Conn; data written becomes readable at the peer after the
// fabric's current one-way latency for the link (plus jitter and
// loss-retransmission delay when configured).
type conn struct {
	nw            *Network
	pair          *pairConn
	local, remote addr
	localIdx      int
	remoteIdx     int
	in            *endpoint // my inbox
	out           *endpoint // the peer's inbox — what Write delivers into

	readMu sync.Mutex // serializes Read

	sendMu      sync.Mutex
	lastDeliver time.Time // FIFO clamp: later writes never arrive earlier

	dlMu                        sync.Mutex
	readDeadline, writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// newPair creates a registered connection between hosts aIdx and bIdx.
// Both handles, both inboxes and the pair record are one allocation:
// they are born and die together.
func (n *Network) newPair(aIdx, bIdx int, aAddr, bAddr addr) (*conn, *conn) {
	m := new(struct {
		pair     pairConn
		a, b     conn
		inA, inB endpoint
	})
	m.inA.init()
	m.inB.init()
	m.pair = pairConn{a: &m.a, b: &m.b, aIdx: aIdx, bIdx: bIdx}
	m.a = conn{nw: n, pair: &m.pair, local: aAddr, remote: bAddr, localIdx: aIdx, remoteIdx: bIdx,
		in: &m.inA, out: &m.inB, closed: make(chan struct{})}
	m.b = conn{nw: n, pair: &m.pair, local: bAddr, remote: aAddr, localIdx: bIdx, remoteIdx: aIdx,
		in: &m.inB, out: &m.inA, closed: make(chan struct{})}
	n.addPair(&m.pair)
	return &m.a, &m.b
}

func (c *conn) opError(op string, err error) error {
	return &net.OpError{Op: op, Net: "simnet", Addr: c.remote, Err: err}
}

// Write schedules p for delivery after the link's current one-way
// latency. It blocks only on the in-flight window (a peer that stops
// reading) — never on the propagation delay itself. Faults apply here:
// a lost packet is delivered late by one retransmission timeout, a
// write into a dead host resets the connection, and one across a
// partition vanishes.
func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		select {
		case <-c.closed:
			return 0, c.opError("write", net.ErrClosed)
		default:
			return 0, nil
		}
	}
	// Reserve a window slot, honoring the write deadline.
	for {
		select {
		case <-c.closed:
			return 0, c.opError("write", net.ErrClosed)
		default:
		}
		c.dlMu.Lock()
		wd := c.writeDeadline
		c.dlMu.Unlock()
		left, ok := untilDeadline(wd)
		if !ok {
			return 0, c.opError("write", os.ErrDeadlineExceeded)
		}
		c.out.mu.Lock()
		if err := c.out.err; err != nil {
			c.out.mu.Unlock()
			return 0, c.opError("write", err)
		}
		if c.out.inflight < windowPackets {
			c.out.inflight++
			c.out.mu.Unlock()
			break
		}
		c.out.mu.Unlock()
		waitUntil(c.out.space, c.closed, left)
	}

	delay, drop, reset := c.nw.sendVerdict(c.localIdx, c.remoteIdx)
	if reset {
		c.pair.reset(errConnReset)
		return 0, c.opError("write", errConnReset)
	}
	if drop {
		// The link is cut: the data vanishes into the partition. The
		// write itself succeeds, as a TCP send into a dead path would.
		c.out.mu.Lock()
		c.out.consumeLocked()
		c.out.mu.Unlock()
		return len(p), nil
	}

	buf := append([]byte(nil), p...)
	c.sendMu.Lock()
	deliver := time.Now().Add(delay)
	// TCP-like FIFO: never deliver before an earlier packet.
	if deliver.Before(c.lastDeliver) {
		deliver = c.lastDeliver
	}
	c.lastDeliver = deliver
	c.sendMu.Unlock()
	c.nw.sched.schedule(deliver, arrival{c, buf})
	return len(p), nil
}

// Read returns buffered data, blocking until the scheduler delivers the
// next packet, the deadline passes, or the connection dies. A read
// deadline set while a Read is blocked takes effect immediately.
func (c *conn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}
	in := c.in
	for {
		select {
		case <-c.closed:
			return 0, c.opError("read", net.ErrClosed)
		default:
		}
		in.mu.Lock()
		if len(in.pending) > 0 {
			n := copy(p, in.pending)
			in.pending = in.pending[n:]
			if len(in.pending) == 0 {
				in.pending = nil
				in.consumeLocked()
			}
			in.mu.Unlock()
			return n, nil
		}
		if in.head < len(in.queue) {
			pkt := in.queue[in.head]
			in.queue[in.head] = nil
			in.head++
			if in.head == len(in.queue) {
				in.queue, in.head = in.queue[:0], 0
			}
			n := copy(p, pkt)
			if n < len(pkt) {
				in.pending = pkt[n:]
			} else {
				in.consumeLocked()
			}
			in.mu.Unlock()
			return n, nil
		}
		if err := in.err; err != nil {
			in.mu.Unlock()
			return 0, c.opError("read", err)
		}
		if in.eof {
			in.mu.Unlock()
			return 0, io.EOF
		}
		in.mu.Unlock()

		c.dlMu.Lock()
		rd := c.readDeadline
		c.dlMu.Unlock()
		left, ok := untilDeadline(rd)
		if !ok {
			return 0, c.opError("read", os.ErrDeadlineExceeded)
		}
		waitUntil(in.readable, c.closed, left)
	}
}

// Close closes this end: local operations fail immediately, and the
// peer observes EOF once in-flight data has drained (the FIN rides the
// same FIFO-clamped delivery schedule as data).
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.in.mu.Lock()
		c.in.recvClosed = true
		c.in.dropLocked()
		c.in.mu.Unlock()
		signal(c.in.space)

		c.sendMu.Lock()
		deliver := time.Now().Add(c.nw.plainDelay(c.localIdx, c.remoteIdx))
		if deliver.Before(c.lastDeliver) {
			deliver = c.lastDeliver
		}
		c.lastDeliver = deliver
		c.sendMu.Unlock()
		c.nw.sched.schedule(deliver, arrival{from: c})
		if c.pair.closedEnds.Add(1) == 2 {
			c.nw.dropPair(c.pair)
		}
	})
	return nil
}

// LocalAddr returns the local endpoint address.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines. Unlike the earlier
// simnet, deadlines apply to operations already blocked.
func (c *conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.dlMu.Unlock()
	signal(c.in.readable)
	signal(c.out.space)
	return nil
}

// SetReadDeadline sets the read deadline, waking a blocked Read so it
// takes effect immediately.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline = t
	c.dlMu.Unlock()
	signal(c.in.readable)
	return nil
}

// SetWriteDeadline sets the write deadline, waking a Write blocked on
// the in-flight window.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDeadline = t
	c.dlMu.Unlock()
	signal(c.out.space)
	return nil
}
