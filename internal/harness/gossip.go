package harness

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/ides-go/ides/internal/peer"
	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
)

// RendezvousName is the in-fabric address of the bootstrap directory in
// a gossip cluster.
const RendezvousName = "ides-rendezvous"

// GossipConfig parameterizes a GossipCluster — the decentralized,
// landmark-free counterpart of Config: no information server in the
// data path, every host a peer running the DMFSGD gossip loop, plus one
// rendezvous directory for bootstrap. The peers run with peer.Config's
// zero values for everything not listed here: the solver's default step
// and regulariser, the default re-announce period, and the unclamped
// variant (Algorithm core.SVD — coordinates may go negative; only
// ides-peer, whose -alg flag defaults to nmf, clamps).
type GossipConfig struct {
	// NumPeers is the number of gossiping hosts (default 64). One extra
	// topology site carries the rendezvous directory.
	NumPeers int
	// Dim is the coordinate dimensionality (default 8).
	Dim int
	// MaxNeighbors bounds each peer's neighbor table (default 16).
	MaxNeighbors int
	// SampleSize is the per-exchange neighbor sample (0 = peer default).
	SampleSize int
	// Seed drives topology generation, the fabric, the rendezvous
	// directory and every peer — one knob reproduces a run bit for bit.
	Seed int64
	// Metrics receives the rendezvous directory's and first peer's
	// instrument families. Optional.
	Metrics *telemetry.Registry
}

// gossipTimeScale compresses simulated delays onto the wall clock;
// measured RTTs are simulated time and unaffected.
const gossipTimeScale = 1e-6

func (c GossipConfig) withDefaults() GossipConfig {
	if c.NumPeers <= 0 {
		c.NumPeers = 64
	}
	if c.Dim <= 0 {
		c.Dim = 8
	}
	if c.MaxNeighbors <= 0 {
		c.MaxNeighbors = 16
	}
	return c
}

// GossipCluster is a running decentralized IDES deployment over simnet:
// NumPeers gossiping peers and one rendezvous directory, all real
// production code over a virtual fabric. Drive it with GossipRound and
// measure with MeasureAccuracy; fault-inject through Net directly.
//
// Determinism: rounds are driven sequentially peer by peer, each peer's
// randomness is seeded from Config.Seed, the rendezvous samples from
// its own seeded stream, and the fabric draws nothing when jitter and
// loss are off — so a same-seed run is bit-identical, coordinates
// included.
type GossipCluster struct {
	// Net is the fabric — script faults directly on it.
	Net *simnet.Network
	// Topo is the generated ground-truth topology.
	Topo *topology.Topology
	// Rdv is the rendezvous directory (already serving).
	Rdv *peer.Rendezvous

	peers     []*peer.Peer
	peerNames []string

	ctx    context.Context
	cancel context.CancelFunc
	lns    []net.Listener
}

// instantPinger adapts simnet's sleep-free ping to transport.Pinger:
// measurement campaigns over thousands of peers must not serialize on
// wall-clock timers. RNG draws match Host.Ping exactly (zero when
// jitter and loss are off), so determinism is unaffected.
type instantPinger struct {
	h *simnet.Host
}

func (p instantPinger) Ping(_ context.Context, addr string, samples int) (time.Duration, error) {
	return p.h.PingInstant(addr, samples)
}

// NewGossip generates the topology, builds the fabric, starts the
// rendezvous directory and boots every peer's serve loop. Peers start
// with empty neighbor tables; the first GossipRound announces them to
// the rendezvous.
//
// At 2,000 peers a boot takes ~0.15 s on one core of a 2 vCPU Xeon.
// topology.Generate is ~0.11 s of it: its shortest-path searches ~0.03 s,
// and the per-stub-pair inflation draws over two million pairs most of
// the rest. peer.New is ~0.035 s, nearly all of it seeding the math/rand
// source of each peer's neighbor table. The seeding stays: another
// generator would move every seeded run.
func NewGossip(cfg GossipConfig) (*GossipCluster, error) {
	cfg = cfg.withDefaults()
	total := cfg.NumPeers + 1

	topo, err := topology.Generate(topology.Config{
		Seed:     cfg.Seed,
		NumHosts: total,
		// One stub per ~2k sites keeps the generator's stub-pair distance
		// matrix quadratic in thousands, not tens of thousands: tens of MB
		// at 10k peers instead of gigabytes.
		HostsPerStub: (cfg.NumPeers + 2048) / 2048,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	names := make([]string, total)
	names[0] = RendezvousName
	peerNames := make([]string, cfg.NumPeers)
	for i := range peerNames {
		peerNames[i] = fmt.Sprintf("peer-%d", i)
		names[i+1] = peerNames[i]
	}
	nw, err := simnet.New(topo, names, simnet.Config{TimeScale: gossipTimeScale, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	g := &GossipCluster{Net: nw, Topo: topo, peerNames: peerNames}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	fail := func(err error) (*GossipCluster, error) {
		g.Close()
		return nil, err
	}

	// Rendezvous directory on site 0.
	g.Rdv = peer.NewRendezvous(cfg.Seed, cfg.Metrics)
	if err := g.serveOn(RendezvousName, func(ln net.Listener) error {
		go g.Rdv.Serve(g.ctx, ln, transport.ServeConfig{Logf: func(string, ...any) {}}) //nolint:errcheck
		return nil
	}); err != nil {
		return fail(err)
	}

	// Peers. The pool keeps no idle connections and no mux connections;
	// every exchange dials. Measured on bench/'s 2,000-peer gossip-fleet
	// (CHANGES.md; one CPU of a 2-vCPU VM): a simnet dial is 3.3 µs at
	// the median (simnet.dial_p50_us) of a 28 µs round (p50_us), and
	// 2.5 µs of the round's 29 µs of CPU. A standing connection per
	// neighbour would be 2,000 × 16 = 32k of them — each a parked serving
	// goroutine plus a buffered reader at both ends, against a fleet whose
	// whole resident set is ~90 MB — with a hit rate that decays as
	// tables churn. It
	// also keeps transport.Pool's host map empty between calls: an entry
	// lives only as long as its one connection.
	for i, name := range peerNames {
		h, err := nw.Host(name)
		if err != nil {
			return fail(fmt.Errorf("harness: %w", err))
		}
		var metrics *telemetry.Registry
		if i == 0 {
			metrics = cfg.Metrics
		}
		p, err := peer.New(peer.Config{
			Self:            name,
			Dim:             cfg.Dim,
			Seed:            cfg.Seed + 7919*int64(i+1),
			MaxNeighbors:    cfg.MaxNeighbors,
			SampleSize:      cfg.SampleSize,
			RendezvousAddrs: []string{RendezvousName},
			Dialer:          h,
			Pinger:          instantPinger{h},
			Pool:            transport.PoolConfig{MaxIdlePerHost: -1, MuxConns: -1},
			Metrics:         metrics,
		})
		if err != nil {
			return fail(fmt.Errorf("harness: peer %s: %w", name, err))
		}
		g.peers = append(g.peers, p)
		if err := g.serveOn(name, func(ln net.Listener) error {
			go p.Serve(g.ctx, ln) //nolint:errcheck
			return nil
		}); err != nil {
			return fail(err)
		}
	}
	return g, nil
}

func (g *GossipCluster) serveOn(name string, start func(net.Listener) error) error {
	h, err := g.Net.Host(name)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	ln, err := h.Listen()
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	g.lns = append(g.lns, ln)
	return start(ln)
}

// Close tears the cluster down.
func (g *GossipCluster) Close() {
	g.cancel()
	for _, p := range g.peers {
		p.Close()
	}
	for _, ln := range g.lns {
		ln.Close()
	}
	g.Net.Close()
}

// NumPeers returns the fleet size.
func (g *GossipCluster) NumPeers() int { return len(g.peers) }

// Peer returns the i-th peer.
func (g *GossipCluster) Peer(i int) *peer.Peer { return g.peers[i] }

// PeerNames returns the peer addresses in index order.
func (g *GossipCluster) PeerNames() []string { return append([]string(nil), g.peerNames...) }

// GossipRound drives one gossip round through every peer in index
// order and reports how many rounds failed (unreachable partners,
// empty tables). Failures are part of normal operation under faults;
// the round only errors when ctx does.
func (g *GossipCluster) GossipRound(ctx context.Context) (failed int, err error) {
	for _, p := range g.peers {
		if err := p.GossipRound(ctx); err != nil {
			if ctx.Err() != nil {
				return failed, ctx.Err()
			}
			failed++
		}
	}
	return failed, nil
}

// Coordinates returns every peer's current rows, x then y concatenated,
// in index order — the bit-identity witness for determinism tests.
func (g *GossipCluster) Coordinates() [][]float64 {
	out := make([][]float64, len(g.peers))
	for i, p := range g.peers {
		x, y := p.Coordinates()
		out[i] = append(x, y...)
	}
	return out
}

// MeasureAccuracy estimates distances peer-to-peer — no server round
// trip: each of the first `sources` peers estimates to the `targetsPer`
// peers that follow it in index order (wrapping), from cached
// coordinates or a direct coordinate fetch on a miss, and the estimates
// are scored against the fabric's ground-truth RTTs with the modified
// relative error. Zero means all.
func (g *GossipCluster) MeasureAccuracy(ctx context.Context, sources, targetsPer int) (Accuracy, error) {
	n := len(g.peers)
	if sources <= 0 || sources > n {
		sources = n
	}
	if targetsPer <= 0 || targetsPer > n-1 {
		targetsPer = n - 1
	}
	var acc Accuracy
	errs := make([]float64, 0, sources*targetsPer)
	for si := 0; si < sources; si++ {
		p := g.peers[si]
		for k := 1; k <= targetsPer; k++ {
			target := g.peerNames[(si+k)%n]
			acc.Queried++
			est, err := p.Estimate(ctx, target)
			if err != nil {
				if ctx.Err() != nil {
					return acc, ctx.Err()
				}
				continue // unreachable target: counted as unanswered
			}
			truth, err := g.Net.GroundTruthRTT(p.Self(), target)
			if err != nil {
				return acc, fmt.Errorf("harness: %w", err)
			}
			errs = append(errs, stats.RelativeError(truth, est))
			acc.Answered++
		}
	}
	acc.Summary = stats.Summarize(errs)
	return acc, nil
}
