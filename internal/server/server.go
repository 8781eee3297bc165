// Package server implements the IDES information server (§5.1): it gathers
// the pairwise landmark distance matrix from landmark reports, factors it
// into the landmark model with SVD or NMF, serves the model to ordinary
// hosts, and runs the directory of registered host vectors that lets any
// two hosts estimate their distance without measuring it.
//
// The model has a versioned lifecycle: each successful fit publishes an
// immutable epoch-stamped snapshot through internal/lifecycle, refits run
// on a debounced background goroutine (never on a request handler), and
// the epoch travels in every model-bearing response so clients can tell
// when their solved vectors belong to a dead generation. Directory
// entries are tagged with the epoch they were solved against; a refit
// evicts stale entries and rejects stale registrations (CodeStaleEpoch)
// instead of silently serving cross-generation estimates.
//
// Model updates go through a pluggable solver (internal/solve): the
// default batch solver refits the full factorization per refresh, while
// Config.Solver solve.SGD maintains the model by O(d)-per-measurement
// gradient updates, publishing incremental revisions that refresh the
// served landmark vectors WITHOUT bumping the epoch — registered hosts
// keep their vectors — until accumulated drift crosses
// Config.DriftEpochThreshold and a full corrective fit starts a new
// generation.
//
// The server is composed from three layers with distinct roles: a
// network front-end (frontend.go) that owns dispatch — connections are
// served by the shared frame server, transport.Serve — a
// read-only QueryService (queryservice.go) over the directory and query
// engine, and the write side: handleReport validating landmark reports
// into a lifecycle.Refitter. The replication tier builds on that seam:
// a leader (any server with a refitter — the default role) streams every
// installed model and accepted registration to subscribed followers as
// the Model and RegisterHost messages clients already get
// (replication.go), and a follower (Config.Role RoleFollower) runs only
// the QueryService, applying the stream atomically and forwarding write
// requests to the leader (follower.go). Followers answer all read
// traffic locally — including during total leader loss, when they keep
// serving the last replicated generation — at the same zero-alloc,
// KD-tree-indexed speed as a standalone server.
package server

import (
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"context"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
)

// Role selects which layers a server runs.
type Role int

const (
	// RoleLeader (the default) runs the full stack: the model refitter,
	// the query service, and the replication hub that streams state to
	// subscribed followers. A standalone single-server deployment is
	// simply a leader with no followers.
	RoleLeader Role = iota
	// RoleFollower runs only the query service: the model and directory
	// arrive over a replication stream from LeaderAddr, reads are served
	// locally, and write requests (reports, registrations) are forwarded
	// to the leader. A follower keeps serving its last replicated
	// generation while the leader is unreachable.
	RoleFollower
)

// String names the role for logs and flags.
func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Config parameterizes a Server.
type Config struct {
	// Landmarks lists the landmark addresses. Reports from other sources
	// are rejected. Required for leaders; a follower learns the landmark
	// set from the replication stream and may leave it empty.
	Landmarks []string
	// Dim is the model dimensionality (default 10, the paper's tradeoff).
	Dim int
	// Algorithm is core.SVD (default) or core.NMF. NMF is required if the
	// landmark matrix may have holes.
	Algorithm core.Algorithm
	// Seed steers model fitting.
	Seed int64
	// NMFIters overrides the NMF iteration budget.
	NMFIters int
	// RequestTimeout bounds a single request/response exchange on a
	// connection. Default 30s.
	RequestTimeout time.Duration
	// IdleTimeout bounds how long a keep-alive connection may sit idle
	// between requests before it is closed. Client-side connection pools
	// hold connections open across calls, so this budget is distinct
	// from — and much longer than — RequestTimeout: the default is ten
	// times RequestTimeout (at least 5 minutes).
	IdleTimeout time.Duration
	// HostTTL expires directory entries that have not been re-registered
	// within the window, so vectors from departed or re-routed hosts stop
	// serving estimates. Zero keeps entries forever. Expiry is amortized:
	// expired entries stop resolving immediately, and are physically
	// reclaimed by per-shard sweeps instead of full scans per request.
	HostTTL time.Duration
	// MaxKNN caps the K a QueryKNN request may ask for (default 4096),
	// bounding response size and per-request work.
	MaxKNN int
	// MaxBatch caps the number of targets one QueryBatch may name
	// (default 100000), bounding per-request allocation and keeping the
	// reply under the frame size limit.
	MaxBatch int
	// BaseEpoch offsets the model epoch sequence: the first fit
	// publishes BaseEpoch+1. Epochs live in memory, so a restarted
	// server starting again from 0 would reuse epochs its previous
	// incarnation already published, and a client that solved against
	// the old incarnation could mistake the new model for its own
	// generation. Long-lived deployments should derive the base from
	// the clock, as cmd/ides-server does; the default 0 keeps epochs
	// small and deterministic for in-process use and tests.
	BaseEpoch uint64
	// RefitMinInterval is the minimum time between background refits
	// (default 10s): however fast measurements churn, the factorization
	// runs at most once per interval. In-process Refit calls
	// bypass it.
	RefitMinInterval time.Duration
	// RefitThreshold is how many accepted measurements must accumulate
	// before a background refit is scheduled (default 1).
	RefitThreshold int
	// Solver selects the model-update strategy: solve.Batch (default)
	// refits the full factorization per model refresh, solve.SGD seeds
	// from a batch fit and then folds each measurement into the model by
	// O(d) gradient updates, publishing incremental revisions that keep
	// the epoch — and every registered host vector — alive until drift
	// crosses DriftEpochThreshold.
	Solver solve.Kind
	// DriftEpochThreshold is the accumulated solver drift — the relative
	// displacement of the landmark factors since the epoch's full fit —
	// at which a corrective full refit bumps the epoch and makes every
	// host re-solve. Default 0.15; negative disables drift-triggered
	// refits. Only meaningful with an incremental solver.
	DriftEpochThreshold float64
	// Role selects leader (default) or follower. See the Role constants.
	Role Role
	// LeaderAddr is the leader this follower subscribes to and forwards
	// writes to. Required when Role is RoleFollower; ignored otherwise.
	LeaderAddr string
	// FollowerID names this follower in the leader's logs and lag
	// metrics. Defaults to "follower".
	FollowerID string
	// LeaderDialer dials the leader for both the replication stream and
	// forwarded writes. Defaults to a plain net.Dialer; the simnet
	// harness injects fabric hosts here.
	LeaderDialer transport.Dialer
	// Metrics, when non-nil, receives the server's instrument families
	// (requests, reports, model lifecycle, query latency, replication)
	// for scraping. Nil disables instrumentation entirely.
	Metrics *telemetry.Registry
	// History, when non-nil, receives the append-only operational log:
	// the server's configuration at startup, every accepted report frame,
	// every model fit/revision, and per-epoch error summaries. The store
	// stays owned by the caller, who closes it after the server stops.
	History *telemetry.Store
	// Logger receives operational messages. Nil disables logging.
	Logger *log.Logger
}

// Server is the IDES information server. Create with New, run with
// Serve. It composes a network front-end, a read-side QueryService, and
// — except on followers — the model refitter plus the replication hub;
// see the package comment for the role split.
type Server struct {
	cfg     Config
	lmIndex map[string]int
	// now is the injectable clock (see SetNow); swapped atomically so
	// tests can advance a fake clock while request handlers, directory
	// sweeps and the refitter read it concurrently.
	now atomic.Pointer[func() time.Time]

	// qs is the read side: directory, per-generation query engine, and
	// every read-only handler. Present in all roles.
	qs *QueryService
	// refit is the write side: it owns the solver, the delta queue and
	// the one loop goroutine that publishes epoch-stamped immutable
	// snapshots. Nil on followers, which consume its output over the
	// replication stream instead.
	refit *lifecycle.Refitter
	// repl streams installed models and accepted registrations to
	// subscribed followers. Nil on followers.
	repl *replicator
	// follower replicates from LeaderAddr and forwards writes. Nil
	// except in RoleFollower.
	follower *follower

	// metrics and history are the optional observability sinks; both are
	// nil-safe throughout (disabled telemetry costs one nil check).
	metrics *serverMetrics
	history *telemetry.Store
	// frames is the connection-level half of the metrics (requests,
	// connections, mux, protocol), owned by the shared frame server.
	frames *transport.ServeMetrics
}

// New validates cfg and builds a Server. A follower starts replicating
// immediately; Close stops it.
func New(cfg Config) (*Server, error) {
	if cfg.Role == RoleFollower {
		if cfg.LeaderAddr == "" {
			return nil, fmt.Errorf("server: follower requires a leader address")
		}
		if cfg.FollowerID == "" {
			cfg.FollowerID = "follower"
		}
		if cfg.LeaderDialer == nil {
			cfg.LeaderDialer = &net.Dialer{}
		}
	} else if len(cfg.Landmarks) < 2 {
		return nil, fmt.Errorf("server: need at least 2 landmarks, got %d", len(cfg.Landmarks))
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 10
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = max(10*cfg.RequestTimeout, 5*time.Minute)
	}
	if cfg.MaxKNN <= 0 {
		cfg.MaxKNN = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 100_000
	}
	idx := make(map[string]int, len(cfg.Landmarks))
	for i, addr := range cfg.Landmarks {
		if _, dup := idx[addr]; dup {
			return nil, fmt.Errorf("server: duplicate landmark address %q", addr)
		}
		idx[addr] = i
	}
	s := &Server{
		cfg:     cfg,
		lmIndex: idx,
	}
	s.SetNow(time.Now)
	// The directory and the refitter read the clock through s.clock so
	// tests that inject a fake clock steer TTL expiry and debounce too.
	// Shards is left at query's own default, 16.
	qc := query.Config{
		TTL: cfg.HostTTL,
		Now: s.clock,
	}
	if cfg.Metrics != nil {
		qc.Metrics = query.NewMetrics(cfg.Metrics)
	}
	s.qs = newQueryService(query.New(qc), cfg)
	s.history = cfg.History
	if cfg.Role == RoleFollower {
		f, err := newFollower(cfg, s.qs, s.logf)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.follower = f
	} else {
		solver, err := solve.New(cfg.Solver, len(cfg.Landmarks), core.FitOptions{
			Dim:       cfg.Dim,
			Algorithm: cfg.Algorithm,
			Seed:      cfg.Seed,
			NMFIters:  cfg.NMFIters,
		}, solve.SGDOptions{})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		// The hooks run on the refitter's loop goroutine: OnSwap just
		// before each snapshot becomes visible, OnEvent after every
		// lifecycle transition.
		s.refit = lifecycle.New(solver, lifecycle.Config{
			BaseEpoch:      cfg.BaseEpoch,
			MinInterval:    cfg.RefitMinInterval,
			Threshold:      cfg.RefitThreshold,
			DriftThreshold: cfg.DriftEpochThreshold,
			Now:            s.clock,
			OnSwap:         s.installSnapshot,
			OnEvent:        s.onModelEvent,
			OnError:        func(err error) { s.logf("background model update failed (will retry): %v", err) },
		})
		s.repl = newReplicator(s.qs)
		s.qs.onRegister = s.repl.publishRegister
	}
	s.metrics = newServerMetrics(cfg.Metrics, s)
	s.frames = transport.NewServeMetrics(cfg.Metrics)
	if s.history != nil && s.refit != nil {
		if err := s.history.Append(&telemetry.ConfigRecord{
			TimeUnixNanos:  s.history.Now(),
			Dim:            cfg.Dim,
			Algorithm:      cfg.Algorithm.String(),
			Solver:         cfg.Solver.String(),
			Seed:           uint64(cfg.Seed),
			BaseEpoch:      cfg.BaseEpoch,
			DriftThreshold: cfg.DriftEpochThreshold,
			Landmarks:      cfg.Landmarks,
		}); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: recording config: %w", err)
		}
	}
	return s, nil
}

// Close stops the background machinery: the refitter on a leader, the
// replication stream and forwarding pool on a follower. The server
// keeps serving the last published snapshot; Serve is unaffected. Safe
// to call twice.
func (s *Server) Close() {
	if s.refit != nil {
		s.refit.Close()
	}
	if s.follower != nil {
		s.follower.Close()
	}
}

// clock reads the (possibly injected) server clock.
func (s *Server) clock() time.Time { return (*s.now.Load())() }

// SetNow replaces the server's clock — a test hook that lets suites
// drive HostTTL expiry and refit debounce with a fake clock instead of
// sleeping the wall clock out. Safe to call while the server is
// serving; production deployments never call it.
func (s *Server) SetNow(now func() time.Time) { s.now.Store(&now) }

// installSnapshot is the leader's OnSwap hook: it installs a freshly
// published snapshot into the QueryService (directory epoch → engine →
// served snapshot → k-NN rebuild; see QueryService.Install for why the
// order matters) and then streams it to subscribed followers, who apply
// it with the same ordering. Runs on the refitter's loop goroutine
// just before the snapshot becomes visible through the refitter.
func (s *Server) installSnapshot(snap *lifecycle.Snapshot) {
	if snap.Rev == 0 {
		s.logf("model refit: epoch %d, %d landmarks, d=%d, algorithm=%v",
			snap.Epoch, len(s.cfg.Landmarks), snap.Model.Dim(), snap.Model.Algorithm)
	}
	s.qs.Install(snap, s.cfg.Landmarks, s.lmIndex)
	// Only this goroutine installs on a leader: served() is what
	// Install just stored.
	s.repl.publishModel(s.qs.served())
}

// Epoch returns the epoch of the model generation currently being
// served, 0 before the first fit (or, on a follower, before the first
// replicated snapshot).
func (s *Server) Epoch() uint64 { return s.qs.Epoch() }

// Quiesce blocks until the model-update pipeline is fully drained: all
// reported measurements applied, no fit in flight, and no scheduled
// follow-up work (including drift-triggered corrective fits). Unlike
// Refit it never forces work that is not already owed. It is the sync
// hook deterministic scenario tests step on instead of sleeping. On a
// follower it returns immediately: there is no pipeline to drain.
func (s *Server) Quiesce(ctx context.Context) error {
	if s.refit == nil {
		return nil
	}
	_, err := s.refit.Quiesce(ctx)
	return err
}

// LifecycleStats returns the model lifecycle counters: the published
// (epoch, rev) pair plus lifetime full fits, incremental revisions, and
// measurement deltas applied — the observability hook bench/ and
// operators read. On a follower the counters are zero
// except Epoch/Rev, which report the applied replicated position.
func (s *Server) LifecycleStats() lifecycle.Stats {
	if s.refit == nil {
		return lifecycle.Stats{Epoch: s.qs.Epoch(), Rev: s.qs.Rev()}
	}
	return s.refit.Stats()
}

// Refit synchronously folds all pending measurements into the served
// model and returns the resulting epoch — an operational hook for tests
// and tools; the serving path refreshes in the background on its own
// schedule. With the batch solver any pending measurement costs a full
// fit and bumps the epoch; with the SGD solver measurements already
// covered by an incremental revision return that revision's (unchanged)
// epoch instead — callers must not assume the epoch moves. Errors on a
// follower.
func (s *Server) Refit(ctx context.Context) (uint64, error) {
	if s.refit == nil {
		return 0, fmt.Errorf("server: follower cannot refit")
	}
	snap, err := s.refit.Refresh(ctx)
	if err != nil {
		return 0, err
	}
	return snap.Epoch, nil
}

// NumHosts returns the number of live (unexpired, current-epoch)
// registered hosts. It reads the directory's per-shard counters instead
// of scanning every entry; the count is exact within one sweep interval
// of any expiry.
func (s *Server) NumHosts() int { return s.qs.dir.Len() }

// Engine exposes the server's query engine for in-process callers
// (bench/'s per-layer probes, tests); remote callers use the
// QueryBatch/QueryKNN wire messages.
func (s *Server) Engine() *query.Engine { return s.qs.engine.Load() }

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("ides-server: "+format, args...)
	}
}
