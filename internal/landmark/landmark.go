// Package landmark implements the IDES landmark agent: a well-positioned
// node that measures round-trip times to its landmark peers, reports them
// to the information server, and answers echo requests so that other nodes
// can measure their distance to it (§5.1). Reports ride a transport.Pool
// of persistent connections to the server (shared via Config.Pool or
// private, released by Close), and the echo service keeps client
// connections alive across probe batches under EchoIdleTimeout.
package landmark

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// Config parameterizes an Agent.
type Config struct {
	// Self is this landmark's address as the server knows it.
	Self string
	// Peers are the other landmarks to measure.
	Peers []string
	// Server is the information server's address.
	Server string
	// Dialer opens connections (real or simulated).
	Dialer transport.Dialer
	// Pinger measures RTTs (real or simulated).
	Pinger transport.Pinger
	// Samples per peer measurement (minimum is reported). Default 4.
	Samples int
	// Interval between measurement rounds for Run. Default 1 minute, the
	// NLANR AMP cadence.
	Interval time.Duration
	// Timeout bounds one measurement or report exchange. Default 15s.
	Timeout time.Duration
	// EchoIdleTimeout bounds how long an echo connection may sit idle
	// between Ping frames before ServeEcho closes it. Pingers batch
	// several probes per connection, so idle waits are normal; the
	// default is ten times Timeout.
	EchoIdleTimeout time.Duration
	// Pool, when set, carries report exchanges over pooled persistent
	// connections shared with other components. When nil, New builds a
	// private pool over Dialer (released by Close).
	Pool *transport.Pool
	// Logger receives operational messages. Nil disables logging.
	Logger *log.Logger
}

// Agent measures and reports landmark-to-landmark distances.
type Agent struct {
	cfg     Config
	pool    *transport.Pool
	ownPool bool
}

// New validates cfg and builds an Agent.
func New(cfg Config) (*Agent, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("landmark: Self must be set")
	}
	if cfg.Dialer == nil || cfg.Pinger == nil {
		return nil, fmt.Errorf("landmark: Dialer and Pinger must be set")
	}
	if cfg.Server == "" {
		return nil, fmt.Errorf("landmark: Server must be set")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	if cfg.EchoIdleTimeout <= 0 {
		cfg.EchoIdleTimeout = 10 * cfg.Timeout
	}
	a := &Agent{cfg: cfg, pool: cfg.Pool}
	if a.pool == nil {
		pool, err := transport.NewPool(transport.PoolConfig{
			Dialer:      cfg.Dialer,
			CallTimeout: cfg.Timeout,
		})
		if err != nil {
			return nil, fmt.Errorf("landmark: %w", err)
		}
		a.pool, a.ownPool = pool, true
	}
	return a, nil
}

// Close releases the agent's private connection pool (a no-op when the
// pool was supplied through Config.Pool).
func (a *Agent) Close() error {
	if a.ownPool {
		return a.pool.Close()
	}
	return nil
}

// MeasureOnce pings every peer and returns the observed RTTs in
// milliseconds. Unreachable peers are skipped (and logged); an empty
// result is not an error.
func (a *Agent) MeasureOnce(ctx context.Context) []wire.RTTEntry {
	entries := make([]wire.RTTEntry, 0, len(a.cfg.Peers))
	for _, peer := range a.cfg.Peers {
		if peer == a.cfg.Self {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
		rtt, err := a.cfg.Pinger.Ping(pctx, peer, a.cfg.Samples)
		cancel()
		if err != nil {
			a.logf("ping %s: %v", peer, err)
			continue
		}
		entries = append(entries, wire.RTTEntry{
			To:        peer,
			RTTMillis: float64(rtt) / float64(time.Millisecond),
		})
	}
	return entries
}

// ReportOnce measures all peers and sends one report to the server.
func (a *Agent) ReportOnce(ctx context.Context) error {
	entries := a.MeasureOnce(ctx)
	if len(entries) == 0 {
		return fmt.Errorf("landmark %s: no peer measurements succeeded", a.cfg.Self)
	}
	msg := &wire.ReportRTT{From: a.cfg.Self, Entries: entries}
	rctx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
	defer cancel()
	respT, _, err := a.pool.Call(rctx, a.cfg.Server, wire.TypeReportRTT, msg.Encode(nil))
	if err != nil {
		return fmt.Errorf("landmark %s: reporting: %w", a.cfg.Self, err)
	}
	if respT != wire.TypeAck {
		return fmt.Errorf("landmark %s: report answered with %v, want Ack", a.cfg.Self, respT)
	}
	return nil
}

// Run reports immediately and then on every interval tick until ctx is
// cancelled.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.ReportOnce(ctx); err != nil {
		a.logf("initial report: %v", err)
	}
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if err := a.ReportOnce(ctx); err != nil {
				a.logf("report: %v", err)
			}
		}
	}
}

// ServeEcho answers Ping frames on ln until ctx is cancelled, so that
// hosts without raw-socket access can measure RTT to this landmark over
// the service's own transport. It runs on the shared frame server: idle
// waits get EchoIdleTimeout, an arrived frame and its answer get Timeout,
// anything but a well-formed Ping is answered with an error frame on a
// connection that stays open, and Hello upgrades to multiplexed framing
// so a pooled client can probe it.
func (a *Agent) ServeEcho(ctx context.Context, ln net.Listener) error {
	return transport.Serve(ctx, ln, transport.ServeConfig{
		Handler:        echo,
		RequestTimeout: a.cfg.Timeout,
		IdleTimeout:    a.cfg.EchoIdleTimeout,
		Logf:           a.logf,
	})
}

// echo refuses everything the frame server hands it: the Ping it exists
// for is answered there.
func echo(_ wire.MsgType, _, dst []byte) (wire.MsgType, []byte) {
	return wire.AppendError(dst, wire.CodeUnknownType, "echo service only answers Ping")
}

func (a *Agent) logf(format string, args ...interface{}) {
	if a.cfg.Logger != nil {
		a.cfg.Logger.Printf("ides-landmark: "+format, args...)
	}
}
