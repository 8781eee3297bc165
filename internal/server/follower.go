package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// follower is the replica side of the replication tier: a background
// stream loop that subscribes to the leader and applies its Model and
// RegisterHost frames into the local QueryService — which holds the
// applied position — and a forwarding path that relays write requests
// (reports, registrations) to the leader. It starts at New and stops at
// Server.Close, like the leader's refitter.
type follower struct {
	id         string
	leader     string
	dialer     transport.Dialer
	qs         *QueryService
	pool       *transport.Pool
	reqTimeout time.Duration
	logf       func(format string, args ...interface{})

	cancel context.CancelFunc
	done   chan struct{}

	connected     atomic.Bool
	reconnects    atomic.Uint64
	framesApplied atomic.Uint64
	bytesApplied  atomic.Uint64
}

func newFollower(cfg Config, qs *QueryService, logf func(string, ...interface{})) (*follower, error) {
	// The forwarding pool is small: one leader endpoint, light write
	// traffic relative to the read load the follower absorbs locally.
	pool, err := transport.NewPool(transport.PoolConfig{
		Dialer:      cfg.LeaderDialer,
		CallTimeout: cfg.RequestTimeout,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{
		id:         cfg.FollowerID,
		leader:     cfg.LeaderAddr,
		dialer:     cfg.LeaderDialer,
		qs:         qs,
		pool:       pool,
		reqTimeout: cfg.RequestTimeout,
		logf:       logf,
		cancel:     cancel,
		done:       make(chan struct{}),
	}
	go f.run(ctx)
	return f, nil
}

// Close stops the stream loop and the forwarding pool.
func (f *follower) Close() {
	f.cancel()
	<-f.done
	f.pool.Close()
}

// run is the reconnect loop: each stream failure backs off (capped, reset
// after a stream that lived long enough to be called healthy) and
// resubscribes, which resyncs the model and the whole directory; the
// position the Subscribe reports only reaches the leader's log.
func (f *follower) run(ctx context.Context) {
	defer close(f.done)
	const (
		minBackoff = 50 * time.Millisecond
		maxBackoff = 2 * time.Second
	)
	backoff := minBackoff
	for {
		start := time.Now()
		err := f.stream(ctx)
		f.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		f.reconnects.Add(1)
		if err != nil && err != io.EOF {
			f.logf("replication stream to %s: %v (reconnecting)", f.leader, err)
		}
		if time.Since(start) > 10*time.Second {
			backoff = minBackoff
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// stream runs one subscription: dial, Subscribe, then apply frames until
// the connection dies or ctx is cancelled.
func (f *follower) stream(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, f.reqTimeout)
	conn, err := f.dialer.DialContext(dctx, "tcp", f.leader)
	cancel()
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	sub := wire.Subscribe{ID: f.id, Epoch: f.qs.Epoch(), Rev: f.qs.Rev()}
	if err := conn.SetWriteDeadline(time.Now().Add(f.reqTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.TypeSubscribe, sub.Encode(nil))); err != nil {
		return err
	}
	// The stream is one-way from here: no read deadline, because a
	// silent leader (no fits, no registrations) is healthy.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	var scratch []byte
	for first := true; ; first = false {
		t, payload, buf, err := wire.ReadFrameInto(br, scratch)
		scratch = buf
		if err != nil {
			return err
		}
		if t == wire.TypeError {
			if e, err := wire.DecodeError(payload); err == nil {
				return e
			}
			return fmt.Errorf("server: leader rejected subscription")
		}
		// The stream was never versioned: a leader whose first frame is
		// not a Model predates the Model/RegisterHost stream.
		if first && t != wire.TypeModel {
			return fmt.Errorf("server: leader opened the replication stream with %v, not Model: "+
				"it predates this follower's stream format; upgrade the leader and its followers together", t)
		}
		f.connected.Store(true)
		f.framesApplied.Add(1)
		f.bytesApplied.Add(uint64(wire.HeaderSize + len(payload)))
		switch t {
		case wire.TypeModel:
			m, err := wire.DecodeModel(payload)
			if err != nil {
				return err
			}
			if err := f.applyModel(m); err != nil {
				return err
			}
		case wire.TypeRegisterHost:
			if err := f.qs.applyReplicated(payload); err != nil {
				return err
			}
		default:
			// Forward compatibility: ignore unknown stream frames.
		}
	}
}

// applyModel rebuilds a core.Model from one streamed Model and installs
// it with the same ordering as a local fit: directory epoch → engine →
// served snapshot → k-NN index rebuild. Models at or behind the served
// position are skipped (a resubscription replays the leader's current
// state; applying it twice would churn the engine for nothing).
func (f *follower) applyModel(m *wire.Model) error {
	if m.Epoch == 0 {
		// Bare subscription ack: the leader has not fit a model yet.
		return nil
	}
	if st := f.qs.served(); st != nil && (m.Epoch < st.snap.Epoch || (m.Epoch == st.snap.Epoch && m.Rev <= st.snap.Rev)) {
		return nil
	}
	dim := int(m.Dim)
	n := len(m.Landmarks)
	if dim <= 0 || n == 0 {
		return fmt.Errorf("server: replicated model with %d landmarks, dim %d", n, dim)
	}
	alg, err := core.ParseAlgorithm(m.Algorithm)
	if err != nil {
		return fmt.Errorf("server: replicated model: %w", err)
	}
	model := &core.Model{X: mat.NewDense(n, dim), Y: mat.NewDense(n, dim), Algorithm: alg}
	addrs := make([]string, n)
	index := make(map[string]int, n)
	for i, l := range m.Landmarks {
		model.X.SetRow(i, l.Out)
		model.Y.SetRow(i, l.In)
		addrs[i] = l.Addr
		index[l.Addr] = i
	}
	f.qs.Install(&lifecycle.Snapshot{Epoch: m.Epoch, Rev: m.Rev, Model: model}, addrs, index)
	if m.Rev == 0 {
		f.logf("replicated model epoch %d: %d landmarks, d=%d, algorithm=%s",
			m.Epoch, n, dim, m.Algorithm)
	}
	return nil
}

// forward relays one write request to the leader and returns its
// response. A leader-side wire error relays verbatim; a transport
// failure comes back as CodeUnavailable so the client can fail over or
// retry — reads stay served locally either way.
func (f *follower) forward(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), f.reqTimeout)
	defer cancel()
	rt, rp, err := f.pool.Call(ctx, f.leader, t, payload)
	if err != nil {
		if we, ok := err.(*wire.Error); ok {
			return wire.AppendError(dst, we.Code, we.Text)
		}
		return wire.AppendError(dst, wire.CodeUnavailable, "leader unreachable: "+err.Error())
	}
	return rt, append(dst, rp...)
}

// forwardRegister relays a registration and, on success, applies it
// locally right away so the registering client's next read on this
// follower already resolves it — read-your-writes without waiting for
// the leader's stream to echo it back (which then applies idempotently).
func (f *follower) forwardRegister(payload, dst []byte) (wire.MsgType, []byte) {
	t, out := f.forward(wire.TypeRegisterHost, payload, dst)
	if t == wire.TypeAck {
		f.qs.applyReplicated(payload)
	}
	return t, out
}
