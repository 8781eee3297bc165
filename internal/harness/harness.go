// Package harness boots a complete IDES deployment — information
// server, landmark agents, ordinary-host clients — in one process over
// the simnet fabric, and exposes the scenario steps and assertion
// helpers that turn end-to-end accuracy and recovery behavior into
// deterministic tests.
//
// Every component is the real production code: the server serves over
// a simnet listener, landmark agents measure peers with simnet pings
// and report over pooled connections, clients bootstrap through the
// wire protocol. Only the network is virtual.
//
// # Determinism
//
// A harness run is reproducible: given the same Config (including
// Seed) and the same sequence of steps, every measured RTT, solved
// vector, model fit and accuracy percentile is identical across runs.
// Three mechanisms make that hold:
//
//   - the simnet fabric draws jitter/loss from per-link seeded RNG
//     streams (and draws nothing when they are disabled, the default);
//   - steps are sequential: ReportRound reports landmark by landmark,
//     BootstrapAll joins host by host, so the solver sees measurement
//     deltas in a fixed order;
//   - ReportRound synchronizes on the server's model pipeline after
//     every report (lifecycle Refresh + Quiesce), so delta batching,
//     revision boundaries and drift-triggered corrective fits land at
//     the same points every run — no sleep-based settling anywhere.
package harness

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/ides-go/ides/internal/client"
	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/topology"
)

// ServerName is the in-fabric address of the information server.
const ServerName = "ides-server"

// Config parameterizes a Cluster. The zero value plus nothing is not
// useful; New applies the documented defaults.
type Config struct {
	// NumLandmarks and NumHosts size the deployment: NumLandmarks
	// landmark agents, one information server and NumHosts ordinary
	// hosts, each on its own topology site. Defaults 10 and 16.
	NumLandmarks int
	NumHosts     int
	// NumFollowers adds read-only replica servers (default 0). Each
	// follower subscribes to the leader's replication stream on its own
	// site, and every client is pointed at the whole serving tier
	// (leader plus followers) through a failover ClusterPool — queries
	// spread across replicas and survive a KillLeader.
	NumFollowers int
	// Dim is the model dimensionality (default 8).
	Dim int
	// Algorithm is core.SVD (default) or core.NMF.
	Algorithm core.Algorithm
	// Solver selects batch refits (default) or incremental SGD.
	Solver solve.Kind
	// Seed drives topology generation, the fabric's RNG streams and
	// every component seed — the single knob that reproduces a run.
	Seed int64
	// LossRate and RTOMillis pass through to simnet.Config. Both default
	// to zero/off, the fully deterministic setting.
	LossRate  float64
	RTOMillis float64
	// Samples per measurement (default 1) and K landmarks measured per
	// host (default 0 = all).
	Samples int
	K       int
	// DriftEpochThreshold passes through to the server (SGD solver
	// drift at which a corrective fit bumps the epoch).
	DriftEpochThreshold float64
	// Metrics and History pass through to the server's observability
	// sinks: a metrics registry to scrape and an append-only history
	// store that records the run for later replay. Both optional.
	Metrics *telemetry.Registry
	History *telemetry.Store
}

const (
	// timeScale compresses simulated delays onto the wall clock: a
	// 100 ms RTT costs 1 µs of test time.
	timeScale = 1e-5
	// exchangeTimeout bounds each wire exchange and measurement (wall
	// clock; partitioned targets fail fast, not after this).
	exchangeTimeout = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.NumLandmarks <= 0 {
		c.NumLandmarks = 10
	}
	if c.NumHosts <= 0 {
		c.NumHosts = 16
	}
	if c.Dim <= 0 {
		c.Dim = 8
	}
	if c.Samples <= 0 {
		c.Samples = 1
	}
	return c
}

// Cluster is a running in-process IDES deployment over simnet.
type Cluster struct {
	cfg Config

	// Net is the fabric — script faults directly on it.
	Net *simnet.Network
	// Topo is the generated ground-truth topology.
	Topo *topology.Topology
	// Srv is the information server (already serving).
	Srv *server.Server

	landmarkNames []string
	hostNames     []string
	agents        []*landmark.Agent
	clients       []*client.Client

	// Replication tier: follower servers mirroring Srv, plus the state
	// KillLeader/ReviveLeader need to restart the leader process on its
	// simnet host.
	followerNames []string
	followers     []*server.Server
	leaderCfg     server.Config
	leaderEpoch   uint64

	ctx    context.Context
	cancel context.CancelFunc
	lns    []net.Listener
}

// New generates the topology, builds the fabric and boots every
// component: the server is serving, landmark echo services are up, and
// clients are constructed (but not yet bootstrapped — call Start or
// drive the steps yourself).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	total := cfg.NumLandmarks + 1 + cfg.NumFollowers + cfg.NumHosts

	topo, err := topology.Generate(topology.Config{Seed: cfg.Seed, NumHosts: total, HostsPerStub: 1})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	// Landmarks first, then the serving tier (leader, followers), then
	// ordinary hosts — distinct sites each (one host per stub), as IDES
	// deploys.
	names := make([]string, total)
	lmNames := make([]string, cfg.NumLandmarks)
	fwNames := make([]string, cfg.NumFollowers)
	hostNames := make([]string, cfg.NumHosts)
	for i := 0; i < cfg.NumLandmarks; i++ {
		lmNames[i] = fmt.Sprintf("lm-%d", i)
		names[i] = lmNames[i]
	}
	names[cfg.NumLandmarks] = ServerName
	for i := 0; i < cfg.NumFollowers; i++ {
		fwNames[i] = fmt.Sprintf("ides-follower-%d", i)
		names[cfg.NumLandmarks+1+i] = fwNames[i]
	}
	for i := 0; i < cfg.NumHosts; i++ {
		hostNames[i] = fmt.Sprintf("host-%d", i)
		names[cfg.NumLandmarks+1+cfg.NumFollowers+i] = hostNames[i]
	}

	nw, err := simnet.New(topo, names, simnet.Config{
		TimeScale: timeScale,
		Seed:      cfg.Seed,
		LossRate:  cfg.LossRate,
		RTOMillis: cfg.RTOMillis,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	c := &Cluster{
		cfg:           cfg,
		Net:           nw,
		Topo:          topo,
		landmarkNames: lmNames,
		followerNames: fwNames,
		hostNames:     hostNames,
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())

	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	// Information server.
	c.leaderCfg = leaderConfig(server.Config{
		Landmarks:           lmNames,
		Dim:                 cfg.Dim,
		Algorithm:           cfg.Algorithm,
		Seed:                cfg.Seed,
		Solver:              cfg.Solver,
		DriftEpochThreshold: cfg.DriftEpochThreshold,
		RequestTimeout:      exchangeTimeout,
		Metrics:             cfg.Metrics,
		History:             cfg.History,
	})
	srv, err := server.New(c.leaderCfg)
	if err != nil {
		return fail(fmt.Errorf("harness: %w", err))
	}
	c.Srv = srv
	srvHost, err := nw.Host(ServerName)
	if err != nil {
		return fail(fmt.Errorf("harness: %w", err))
	}
	srvLn, err := srvHost.Listen()
	if err != nil {
		return fail(fmt.Errorf("harness: %w", err))
	}
	c.lns = append(c.lns, srvLn)
	go srv.Serve(c.ctx, srvLn) //nolint:errcheck

	// Follower replicas: read-only servers subscribed to the leader's
	// replication stream, each on its own site. They learn the landmark
	// set and model from the stream, so only the read-path knobs apply.
	for _, fname := range fwNames {
		fh, err := nw.Host(fname)
		if err != nil {
			return fail(fmt.Errorf("harness: %w", err))
		}
		fsrv, err := server.New(server.Config{
			Role:           server.RoleFollower,
			LeaderAddr:     ServerName,
			FollowerID:     fname,
			LeaderDialer:   fh,
			Dim:            cfg.Dim,
			RequestTimeout: exchangeTimeout,
		})
		if err != nil {
			return fail(fmt.Errorf("harness: follower %s: %w", fname, err))
		}
		c.followers = append(c.followers, fsrv)
		fln, err := fh.Listen()
		if err != nil {
			return fail(fmt.Errorf("harness: follower %s: %w", fname, err))
		}
		c.lns = append(c.lns, fln)
		go fsrv.Serve(c.ctx, fln) //nolint:errcheck
	}

	// Landmark agents with echo services.
	for _, lm := range lmNames {
		h, err := nw.Host(lm)
		if err != nil {
			return fail(fmt.Errorf("harness: %w", err))
		}
		agent, err := landmark.New(landmark.Config{
			Self:    lm,
			Peers:   lmNames,
			Server:  ServerName,
			Dialer:  h,
			Pinger:  h,
			Samples: cfg.Samples,
			Timeout: exchangeTimeout,
		})
		if err != nil {
			return fail(fmt.Errorf("harness: landmark %s: %w", lm, err))
		}
		ln, err := h.Listen()
		if err != nil {
			return fail(fmt.Errorf("harness: landmark %s: %w", lm, err))
		}
		c.lns = append(c.lns, ln)
		go agent.ServeEcho(c.ctx, ln) //nolint:errcheck
		c.agents = append(c.agents, agent)
	}

	// Ordinary-host clients (not yet bootstrapped).
	for i, name := range hostNames {
		cl, err := c.newClient(name, int64(i))
		if err != nil {
			return fail(err)
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// leaderConfig makes cfg the deterministic leader the harness and
// Replay both run. RefitMinInterval of 1ns makes every owed fit run at
// the refitter's next loop cycle, so per-report Quiesce sync points
// fully determine when model updates land. The refit threshold of one
// full measurement round keeps the background schedule from attempting
// (and hot-retrying) fits on a matrix that cannot be complete yet;
// Refresh bypasses it when a scenario wants a fit from partial data.
func leaderConfig(cfg server.Config) server.Config {
	n := len(cfg.Landmarks)
	cfg.RefitMinInterval = time.Nanosecond
	cfg.RefitThreshold = n * (n - 1)
	return cfg
}

func (c *Cluster) newClient(name string, seed int64) (*client.Client, error) {
	h, err := c.Net.Host(name)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	ccfg := client.Config{
		Self:    name,
		Server:  ServerName,
		Dialer:  h,
		Pinger:  h,
		Samples: c.cfg.Samples,
		K:       c.cfg.K,
		Seed:    seed,
		NNLS:    c.cfg.Algorithm == core.NMF,
		Timeout: exchangeTimeout,
	}
	if len(c.followerNames) > 0 {
		// Point the client at the whole serving tier: reads spread over
		// the replicas and fail over when one (the leader included) dies.
		// Leader first, so single-endpoint and tiered runs route
		// identically until a fault makes the difference.
		ccfg.Server = ""
		ccfg.Servers = append([]string{ServerName}, c.followerNames...)
		ccfg.ProbeInterval = 50 * time.Millisecond
	}
	cl, err := client.New(ccfg)
	if err != nil {
		return nil, fmt.Errorf("harness: client %s: %w", name, err)
	}
	return cl, nil
}

// Close tears the whole deployment down: clients, agents, server,
// fabric. Safe to call twice.
func (c *Cluster) Close() {
	c.cancel()
	for _, cl := range c.clients {
		if cl != nil {
			cl.Close() //nolint:errcheck
		}
	}
	for _, a := range c.agents {
		a.Close() //nolint:errcheck
	}
	for _, ln := range c.lns {
		ln.Close() //nolint:errcheck
	}
	for _, f := range c.followers {
		f.Close()
	}
	if c.Srv != nil {
		c.Srv.Close()
	}
	c.Net.Close()
}

// LandmarkNames returns the landmark addresses in index order.
func (c *Cluster) LandmarkNames() []string { return append([]string(nil), c.landmarkNames...) }

// ServedEpoch returns the model epoch the server currently serves.
func (c *Cluster) ServedEpoch() uint64 { return c.Srv.Epoch() }

// Start runs the standard boot sequence: one full report round (which
// seeds the model) and a sequential bootstrap of every host. It fails
// if any landmark or host cannot join — use the individual steps for
// scenarios where partial failure is the point.
func (c *Cluster) Start(ctx context.Context) error {
	ok, err := c.ReportRound(ctx)
	if err != nil {
		return err
	}
	if ok < len(c.agents) {
		return fmt.Errorf("harness: only %d/%d landmarks reported at boot", ok, len(c.agents))
	}
	if _, err := c.Refresh(ctx); err != nil {
		return fmt.Errorf("harness: seeding fit: %w", err)
	}
	joined, err := c.BootstrapAll(ctx)
	if err != nil {
		return err
	}
	if joined < len(c.clients) {
		return fmt.Errorf("harness: only %d/%d hosts bootstrapped at boot", joined, len(c.clients))
	}
	return nil
}

// ReportRound runs one measurement round: every landmark, in index
// order, measures its reachable peers and reports to the server; after
// each report the model pipeline is drained (Quiesce), so delta
// batches, revisions and drift-triggered fits land identically every
// run. Landmarks that cannot measure or reach the server are skipped.
// Returns how many landmarks reported successfully.
func (c *Cluster) ReportRound(ctx context.Context) (int, error) {
	ok := 0
	for _, a := range c.agents {
		if err := a.ReportOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return ok, ctx.Err()
			}
			continue // partitioned or dead landmark: the scenario's point
		}
		ok++
		if err := c.Srv.Quiesce(ctx); err != nil {
			return ok, fmt.Errorf("harness: quiesce after report: %w", err)
		}
	}
	return ok, nil
}

// Refresh synchronously folds every reported measurement into the
// served model (read-your-writes) and then drains any follow-up work
// it scheduled, returning the served epoch. This is the sync hook that
// replaces sleep-based settling in integration tests.
func (c *Cluster) Refresh(ctx context.Context) (uint64, error) {
	if _, err := c.Srv.Refit(ctx); err != nil {
		return 0, err
	}
	if err := c.Srv.Quiesce(ctx); err != nil {
		return 0, err
	}
	return c.Srv.Epoch(), nil
}

// BootstrapAll joins (or re-joins) every host sequentially: fetch
// model, measure landmarks, solve, register. Hosts that fail (e.g.
// too few reachable landmarks under loss) are skipped; the count of
// successful joins is returned, with the last error when not all made
// it.
func (c *Cluster) BootstrapAll(ctx context.Context) (int, error) {
	ok := 0
	var lastErr error
	for _, cl := range c.clients {
		if err := cl.Bootstrap(ctx); err != nil {
			if ctx.Err() != nil {
				return ok, ctx.Err()
			}
			lastErr = err
			continue
		}
		ok++
	}
	if ok < len(c.clients) && lastErr != nil {
		return ok, fmt.Errorf("harness: %d/%d hosts bootstrapped: last error: %w", ok, len(c.clients), lastErr)
	}
	return ok, nil
}

// Bootstrap joins host i.
func (c *Cluster) Bootstrap(ctx context.Context, i int) error {
	return c.clients[i].Bootstrap(ctx)
}

// PartitionLandmarks cuts the first k landmarks off from the rest of
// the fabric (they still see each other) and returns their names.
func (c *Cluster) PartitionLandmarks(k int) ([]string, error) {
	if k <= 0 || k > len(c.landmarkNames) {
		return nil, fmt.Errorf("harness: cannot partition %d of %d landmarks", k, len(c.landmarkNames))
	}
	names := c.landmarkNames[:k]
	if err := c.Net.Partition(names...); err != nil {
		return nil, err
	}
	return append([]string(nil), names...), nil
}

// Accuracy is an error distribution over host-pair estimates, plus the
// query bookkeeping scenario gates assert on.
type Accuracy struct {
	// Summary holds N/mean/median/p90/max of the modified relative
	// error (Eq. 10) between client estimates and the fabric's current
	// ground truth.
	stats.Summary
	// Queried and Answered count estimate attempts and successful
	// answers; they differ only when hosts are unreachable or targets
	// unresolvable — the survival signal under faults.
	Queried, Answered int
}

// MeasureAccuracy estimates distances between ordinary hosts through
// the real client path (one EstimateBatch round trip per source) and
// compares them against the fabric's current ground-truth RTTs —
// overrides and latency scale included. sources and targetsPer bound
// the sample: the first `sources` hosts each query the `targetsPer`
// hosts that follow them in index order (wrapping), a deterministic
// sample. Zero means all.
func (c *Cluster) MeasureAccuracy(ctx context.Context, sources, targetsPer int) (Accuracy, error) {
	n := len(c.hostNames)
	if sources <= 0 || sources > n {
		sources = n
	}
	if targetsPer <= 0 || targetsPer > n-1 {
		targetsPer = n - 1
	}
	var acc Accuracy
	errs := make([]float64, 0, sources*targetsPer)
	for si := 0; si < sources; si++ {
		self := c.hostNames[si]
		targets := make([]string, 0, targetsPer)
		for k := 1; k <= targetsPer; k++ {
			targets = append(targets, c.hostNames[(si+k)%n])
		}
		acc.Queried += len(targets)
		ests, err := c.clients[si].EstimateBatch(ctx, targets)
		if err != nil {
			if ctx.Err() != nil {
				return acc, ctx.Err()
			}
			continue // unreachable source: counted as unanswered
		}
		for _, e := range ests {
			if !e.Found {
				continue
			}
			truth, err := c.Net.GroundTruthRTT(self, e.Addr)
			if err != nil {
				return acc, fmt.Errorf("harness: %w", err)
			}
			errs = append(errs, stats.RelativeError(truth, e.Millis))
			acc.Answered++
		}
	}
	acc.Summary = stats.Summarize(errs)
	return acc, nil
}

// Survivors counts hosts whose queries are still being answered: each
// client asks for its nearest registered neighbor in one round trip.
// Hosts that cannot reach the server, or whose entry cannot be
// restored, are casualties.
func (c *Cluster) Survivors(ctx context.Context) int {
	alive := 0
	for _, cl := range c.clients {
		if _, err := cl.KNearest(ctx, 1); err == nil {
			alive++
		}
	}
	return alive
}
