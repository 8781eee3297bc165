package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ides-go/ides/internal/harness"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
)

const (
	gossipNeighbors = 16
	// gossipWarmupRounds replaces the serving workloads' 2 s warm-up: a
	// fixed count keeps the op stream identical from run to run, and it
	// covers the boot transient (round 1 has peers with empty tables).
	gossipWarmupRounds = 20
	// gossipAccuracyPairs is how many peer-to-peer estimates are scored.
	gossipAccuracyPairs = 32_000
)

// gossipSpec sizes the fleet and fixes the round at which accuracy is
// sampled. The window is timed, but accuracy is taken after exactly
// accuracyRound rounds — a fleet driven in index order is bit-identical
// per seed, so that figure is an exact regression check.
type gossipSpec struct {
	peers         int
	accuracyRound int
	pairs         int // peer-to-peer estimates scored (gossipAccuracyPairs; fewer under -quick)
}

// bootGossip boots the landmark-free fleet over simnet.
func bootGossip(spec gossipSpec, reg *telemetry.Registry) (*harness.GossipCluster, time.Duration, error) {
	t := time.Now()
	g, err := harness.NewGossip(harness.GossipConfig{
		NumPeers:     spec.peers,
		Dim:          modelDim,
		MaxNeighbors: gossipNeighbors,
		// NewGossip derives topology, fabric and every peer's choices
		// from this one seed, so the fleet is the fixed dataset here;
		// the run's -seed picks which pairs are scored (see README).
		Seed:    datasetSeed,
		Metrics: reg,
	})
	return g, time.Since(t), err
}

// gossipWindow is what one timed gossip window produced.
type gossipWindow struct {
	windowResult
	rounds int
}

// runGossipWindow drives the fleet peer by peer in index order: op = one
// Peer.GossipRound. It runs gossipWarmupRounds untimed, then whole
// rounds until the window has elapsed, and keeps going untimed if
// accuracyRound has not been reached by then (accuracyRound 0 skips the
// accuracy sample). atStart runs between warm-up and the window.
func runGossipWindow(ctx context.Context, g *harness.GossipCluster, spec gossipSpec, seed int64, window time.Duration, traced bool, atStart func()) (*gossipWindow, error) {
	n := g.NumPeers()
	res := &gossipWindow{}
	var tr *tracer
	if traced {
		tr = newTracer(time.Now(), 0)
		res.tracers = []*tracer{tr}
	}
	round := 0
	for ; round < gossipWarmupRounds; round++ {
		if _, err := g.GossipRound(ctx); err != nil {
			return nil, err
		}
	}
	samples := make([]sample, 0, 1<<20)
	atStart()
	var paused time.Duration // accuracy sampling inside the window is not gossip work
	start := time.Now()
	var seq uint64
	for {
		if round == spec.accuracyRound && spec.accuracyRound > 0 {
			t := time.Now()
			var err error
			if res.relErr, err = gossipAccuracy(ctx, g, seed, spec.pairs); err != nil {
				return nil, err
			}
			paused += time.Since(t)
		}
		// A round is timed as a whole, decided when it starts.
		timed := time.Since(start)-paused < window
		if !timed && round >= spec.accuracyRound {
			break
		}
		for i := 0; i < n; i++ {
			p := g.Peer(i)
			if !timed {
				if err := p.GossipRound(ctx); err != nil && ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			seq++
			tr.startOp(seq)
			t0 := time.Now()
			err := p.GossipRound(ctx)
			t1 := time.Now()
			tr.endOp()
			res.attempted++
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				res.failed++
				if len(res.failures) < 5 {
					res.failures = append(res.failures, fmt.Sprintf("round %d %s: %v", round, p.Self(), err))
				}
				continue
			}
			samples = append(samples, newSample(int64(t1.Sub(start)-paused), int64(t1.Sub(t0))))
		}
		if timed {
			res.wall = time.Since(start) - paused
		}
		round++
	}
	res.samples[kindGossip] = samples
	res.rounds = round
	return res, nil
}

// gossipAccuracy scores pairs seeded peer pairs: the
// source estimates the RTT to the target the way an application would
// (cached coordinates, or one measurement-free fetch), against the
// fabric's ground truth. An unanswered estimate is an error: nothing is
// partitioned here.
func gossipAccuracy(ctx context.Context, g *harness.GossipCluster, seed int64, pairs int) ([]float64, error) {
	rng := rand.New(rand.NewSource(streamSeed(seed, 0, phaseAccuracy)))
	names := g.PeerNames()
	errs := make([]float64, 0, pairs)
	for len(errs) < pairs {
		src, dst := rng.Intn(len(names)), rng.Intn(len(names))
		if src == dst {
			continue
		}
		est, err := g.Peer(src).Estimate(ctx, names[dst])
		if err != nil {
			return nil, fmt.Errorf("accuracy sample %s->%s: %w", names[src], names[dst], err)
		}
		truth, err := g.Net.GroundTruthRTT(names[src], names[dst])
		if err != nil {
			return nil, err
		}
		errs = append(errs, stats.RelativeError(truth, est))
	}
	return errs, nil
}
