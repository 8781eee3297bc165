// Package transport defines the small contracts that connect the IDES
// components to a network — real TCP/UDP in the cmd/ binaries, simnet in
// tests and examples — plus the request/response helper all clients share.
package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

// Dialer opens client connections. *net.Dialer and *simnet.Host both
// satisfy it.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// Pinger measures round-trip time to a host. samples > 1 asks for the
// minimum over that many probes. simnet.Host satisfies it natively; for
// real networks use TCPPinger (or an ICMP/UDP pinger outside this module's
// scope).
type Pinger interface {
	Ping(ctx context.Context, addr string, samples int) (time.Duration, error)
}

// Call performs one request/response exchange with an IDES peer: dial,
// send a frame, read a frame, close. A wire.Error response is decoded and
// returned as an error. Deadlines derive from ctx.
func Call(ctx context.Context, d Dialer, addr string, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	defer conn.Close()
	return Roundtrip(ctx, conn, t, payload)
}

// Roundtrip sends one frame on an open connection and reads one reply,
// decoding wire errors. The connection can be reused for further calls:
// the deadline is reset on every call — to the context's deadline when it
// has one, cleared otherwise — so a reused connection never inherits a
// stale deadline from an earlier exchange.
func Roundtrip(ctx context.Context, conn net.Conn, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	rt, rp, _, err := RoundtripInto(ctx, conn, t, payload, nil)
	return rt, rp, err
}

// RoundtripInto is Roundtrip with caller-managed memory: the request
// frame is assembled into buf and sent with a single Write (header and
// payload in one syscall — half the packets of the old two-write path on
// a loopback link), then the reply is read back into the same buffer.
// It returns the reply type, the reply payload, and the scratch buffer
// for the next call. Ownership hand-off is explicit: the payload aliases
// the returned scratch and is valid only until the scratch is passed to
// another call, and the request payload must not alias buf. A caller
// that reuses the scratch performs the whole exchange with zero heap
// allocations.
func RoundtripInto(ctx context.Context, conn net.Conn, t wire.MsgType, payload, buf []byte) (wire.MsgType, []byte, []byte, error) {
	return roundtripInto(ctx, conn, conn, t, payload, buf)
}

// roundtripInto lets the pool substitute a buffered reader for the raw
// connection on the receive side while deadlines stay on conn.
func roundtripInto(ctx context.Context, conn net.Conn, r io.Reader, t wire.MsgType, payload, buf []byte) (wire.MsgType, []byte, []byte, error) {
	if len(payload) > wire.MaxPayload {
		return 0, nil, buf, fmt.Errorf("transport: sending %v: %w", t, wire.ErrFrameTooBig)
	}
	dl, _ := ctx.Deadline() // zero time clears any previous deadline
	if err := conn.SetDeadline(dl); err != nil {
		return 0, nil, buf, fmt.Errorf("transport: setting deadline: %w", err)
	}
	buf = wire.AppendFrame(buf[:0], t, payload)
	if _, err := conn.Write(buf); err != nil {
		return 0, nil, buf[:0], fmt.Errorf("transport: sending %v: %w", t, err)
	}
	rt, rp, buf, err := wire.ReadFrameInto(r, buf[:0])
	if err != nil {
		return 0, nil, buf, fmt.Errorf("transport: reading reply to %v: %w", t, err)
	}
	if rt == wire.TypeError {
		werr, derr := wire.DecodeError(rp)
		if derr != nil {
			return 0, nil, buf, fmt.Errorf("transport: undecodable remote error: %w", derr)
		}
		return rt, nil, buf, werr
	}
	return rt, rp, buf, nil
}

// RequestConn is the server-side companion to the keep-alive split of
// idle and request budgets: it re-arms the connection's read deadline to
// Budget as soon as a Read returns data. The caller sets the long idle
// deadline and calls Rearm before waiting for each request; the idle
// budget then covers only the wait for a request's first bytes — once
// data starts arriving, the rest of the frame must land within Budget,
// so a trickling client cannot stretch one request over the whole idle
// budget. Only the read deadline is touched: on multiplexed connections
// the write side flushes concurrently under its own deadline, and the
// lockstep loop arms the response-write deadline itself after the read.
type RequestConn struct {
	net.Conn
	// Budget bounds a request once its first bytes have arrived.
	Budget time.Duration
	armed  bool
	read   int64
}

// Rearm resets the trigger for the next request: the following Read that
// returns data re-arms the deadline to Budget again.
func (c *RequestConn) Rearm() { c.armed = false }

// BytesRead reports the total bytes delivered by Read over the life of
// the connection. The mux read loop compares it across a failed frame
// read to tell a pure idle timeout (nothing consumed, safe to re-arm
// and keep waiting) from a timeout mid-frame (framing state lost).
func (c *RequestConn) BytesRead() int64 { return c.read }

func (c *RequestConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	if n > 0 && !c.armed {
		c.armed = true
		if derr := c.Conn.SetReadDeadline(time.Now().Add(c.Budget)); derr != nil && err == nil {
			err = derr
		}
	}
	return n, err
}

// TCPPinger measures RTT with application-level echo frames over a fresh
// connection: it dials addr, exchanges Ping/Pong frames, and reports the
// minimum observed round trip. This measures transport RTT plus a little
// processing time — exactly what an IDES deployment without raw-socket
// privileges would use. Each sample is one RoundtripInto exchange: one
// write, and the reply read back into the same reused buffer.
type TCPPinger struct {
	Dialer Dialer
}

// Ping implements Pinger.
func (p *TCPPinger) Ping(ctx context.Context, addr string, samples int) (time.Duration, error) {
	if samples <= 0 {
		samples = 1
	}
	conn, err := p.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("transport: ping dial %s: %w", addr, err)
	}
	defer conn.Close()
	var best time.Duration = -1
	var req [8]byte
	buf := make([]byte, 0, wire.HeaderSize+len(req))
	for s := 0; s < samples; s++ {
		token := uint64(s) + 1
		start := time.Now()
		rt, rp, next, err := RoundtripInto(ctx, conn, wire.TypePing, (&wire.Ping{Token: token}).Encode(req[:0]), buf)
		buf = next
		if err != nil {
			return 0, fmt.Errorf("transport: ping %s: %w", addr, err)
		}
		elapsed := time.Since(start)
		if rt != wire.TypePong {
			return 0, fmt.Errorf("transport: ping got %v, want Pong", rt)
		}
		pong, err := wire.DecodePong(rp)
		if err != nil {
			return 0, fmt.Errorf("transport: ping decode: %w", err)
		}
		if pong.Token != token {
			return 0, fmt.Errorf("transport: pong token %d, want %d", pong.Token, token)
		}
		if best < 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}
