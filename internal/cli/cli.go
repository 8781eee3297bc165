// Package cli holds the flag groups and process plumbing shared by the
// IDES command binaries (ides-server, ides-client, ides-landmark,
// ides-peer): comma-list parsing, connection-pool tuning flags, the
// metrics endpoint, measurement-history recording, serving-role
// selection, and signal-driven shutdown. Each binary registers the
// groups it needs on its flag set and gets identical flag names,
// defaults and semantics across the fleet — `-servers` and `-role` have
// exactly one definition, here.
package cli

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
)

// List parses a comma-separated flag value into its entries, trimming
// whitespace and dropping empties.
func List(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseRole maps a -role flag value to the serving role. "rendezvous"
// is not one: see RoleFlags.Rendezvous.
func ParseRole(s string) (server.Role, error) {
	switch strings.ToLower(s) {
	case "", "leader":
		return server.RoleLeader, nil
	case "follower":
		return server.RoleFollower, nil
	default:
		return 0, fmt.Errorf("unknown role %q (want leader, follower or rendezvous)", s)
	}
}

// SignalContext returns a context cancelled by SIGINT or SIGTERM — the
// shutdown trigger every long-running binary shares.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// PoolFlags is the connection-pool tuning flag group.
type PoolFlags struct {
	MaxIdle     *int
	MaxPerHost  *int
	IdleTimeout *time.Duration
	MuxConns    *int
}

// RegisterPoolFlags installs -pool-max-idle, -pool-max-per-host,
// -pool-idle-timeout and -mux-conns on fs with the given defaults.
// idleHelp extends the idle-timeout help text with binary-specific
// guidance.
func RegisterPoolFlags(fs *flag.FlagSet, maxIdle, maxPerHost int, idleTimeout time.Duration, idleHelp string) *PoolFlags {
	help := "close pooled connections idle longer than this"
	if idleHelp != "" {
		help += " (" + idleHelp + ")"
	}
	return &PoolFlags{
		MaxIdle:     fs.Int("pool-max-idle", maxIdle, "idle pooled connections kept per address"),
		MaxPerHost:  fs.Int("pool-max-per-host", maxPerHost, "total pooled connections per address (negative = unlimited)"),
		IdleTimeout: fs.Duration("pool-idle-timeout", idleTimeout, help),
		MuxConns:    fs.Int("mux-conns", 0, "framing per address: 0 or 1 = one multiplexed connection, negative = lockstep framing only (larger values are refused)"),
	}
}

// Config materializes the parsed flags as a PoolConfig over d.
func (pf *PoolFlags) Config(d transport.Dialer) transport.PoolConfig {
	return transport.PoolConfig{
		Dialer:         d,
		MaxIdlePerHost: *pf.MaxIdle,
		MaxPerHost:     *pf.MaxPerHost,
		IdleTimeout:    *pf.IdleTimeout,
		MuxConns:       *pf.MuxConns,
	}
}

// Build constructs the pool the parsed flags describe.
func (pf *PoolFlags) Build(d transport.Dialer) (*transport.Pool, error) {
	return transport.NewPool(pf.Config(d))
}

// MetricsFlags is the -metrics-addr flag group.
type MetricsFlags struct {
	Addr *string
	reg  *telemetry.Registry
}

// RegisterMetricsFlags installs -metrics-addr on fs. extra extends the
// help text with binary-specific guidance.
func RegisterMetricsFlags(fs *flag.FlagSet, extra string) *MetricsFlags {
	help := "serve Prometheus metrics on this address at /metrics (empty = disabled"
	if extra != "" {
		help += "; " + extra
	}
	help += ")"
	return &MetricsFlags{Addr: fs.String("metrics-addr", "", help)}
}

// Registry returns the registry instruments should register into: a
// lazily built one when the flag is set, nil (every telemetry
// instrument tolerates a nil registry) when metrics are disabled.
func (mf *MetricsFlags) Registry() *telemetry.Registry {
	if *mf.Addr == "" {
		return nil
	}
	if mf.reg == nil {
		mf.reg = telemetry.NewRegistry()
	}
	return mf.reg
}

// Serve starts the /metrics endpoint when the flag is set. The returned
// release func is always safe to call (and to defer).
func (mf *MetricsFlags) Serve(logger *log.Logger, name string) (func() error, error) {
	reg := mf.Registry()
	if reg == nil {
		return func() error { return nil }, nil
	}
	ln, err := telemetry.StartServer(*mf.Addr, reg, logger)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	logger.Printf("%s: metrics on http://%s/metrics", name, ln.Addr())
	return ln.Close, nil
}

// HistoryFlags is the measurement-history recording flag group.
type HistoryFlags struct {
	Dir *string
}

// RegisterHistoryFlags installs -history-dir on fs.
func RegisterHistoryFlags(fs *flag.FlagSet) *HistoryFlags {
	return &HistoryFlags{
		Dir: fs.String("history-dir", "", "record accepted measurements and model lifecycle events to this directory for later replay (empty = disabled)"),
	}
}

// Open opens the history store the parsed flags describe, or (nil, nil)
// when recording is disabled.
func (hf *HistoryFlags) Open() (*telemetry.Store, error) {
	if *hf.Dir == "" {
		return nil, nil
	}
	return telemetry.OpenStore(telemetry.StoreConfig{Dir: *hf.Dir})
}

// RoleFlags is the serving-tier role flag group for ides-server.
type RoleFlags struct {
	Role       *string
	Leader     *string
	FollowerID *string
}

// RegisterRoleFlags installs -role, -leader and -follower-id on fs.
func RegisterRoleFlags(fs *flag.FlagSet) *RoleFlags {
	return &RoleFlags{
		Role:       fs.String("role", "leader", "serving role: leader (fits the model, accepts reports, streams replication), follower (read-only replica of -leader), or rendezvous (bootstrap directory for the decentralized peer mode; no model at all)"),
		Leader:     fs.String("leader", "", "leader address a follower subscribes to and forwards writes to (required with -role follower)"),
		FollowerID: fs.String("follower-id", "", "identifier this follower announces to the leader (default: the listen address)"),
	}
}

// Rendezvous reports whether -role selects the peer mode's bootstrap
// directory. That is no server.Role but another program behind the same
// flag: ides-server runs a peer.Rendezvous in place of a server, and
// reads no model flag.
func (rf *RoleFlags) Rendezvous() bool { return strings.EqualFold(*rf.Role, "rendezvous") }

// Resolve validates the parsed role flags against each other.
func (rf *RoleFlags) Resolve(listen string) (server.Role, string, string, error) {
	role, err := ParseRole(*rf.Role)
	if err != nil {
		return 0, "", "", err
	}
	if role == server.RoleFollower && *rf.Leader == "" {
		return 0, "", "", fmt.Errorf("-role follower requires -leader")
	}
	if role != server.RoleFollower && *rf.Leader != "" {
		return 0, "", "", fmt.Errorf("-leader only applies to -role follower")
	}
	id := *rf.FollowerID
	if id == "" {
		id = listen
	}
	return role, *rf.Leader, id, nil
}

// ServersFlag is the multi-endpoint flag group for client binaries: one
// -server for a single endpoint, or -servers for a replicated tier with
// client-side failover. Exactly one must be used.
type ServersFlag struct {
	Server  *string
	Servers *string
}

// RegisterServersFlag installs -server and -servers on fs.
func RegisterServersFlag(fs *flag.FlagSet) *ServersFlag {
	return &ServersFlag{
		Server:  fs.String("server", "", "information server address"),
		Servers: fs.String("servers", "", "comma-separated serving-tier endpoints (leader and followers); calls fail over between them"),
	}
}

// Resolve returns the single-endpoint address or the endpoint list —
// never both.
func (sf *ServersFlag) Resolve() (string, []string, error) {
	list := List(*sf.Servers)
	switch {
	case *sf.Server == "" && len(list) == 0:
		return "", nil, fmt.Errorf("one of -server or -servers is required")
	case *sf.Server != "" && len(list) > 0:
		return "", nil, fmt.Errorf("-server and -servers are mutually exclusive")
	case len(list) > 0:
		return "", list, nil
	default:
		return *sf.Server, nil, nil
	}
}

// Primary returns the address write-path components (e.g. the echo
// agent's report target) should use: the single server, or the first
// listed endpoint of a replicated tier (followers forward writes to the
// leader, so any entry works).
func (sf *ServersFlag) Primary() string {
	if *sf.Server != "" {
		return *sf.Server
	}
	if list := List(*sf.Servers); len(list) > 0 {
		return list[0]
	}
	return ""
}

// Listen opens the TCP listener every serving binary needs, with the
// uniform error shape.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return ln, nil
}
