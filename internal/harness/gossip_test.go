package harness

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
)

// TestGossipPaperAccuracyAtScale is the decentralized counterpart of
// TestPaperAccuracyAtScale: a 10,000-peer landmark-free fleet on a
// generated topology, every host running the DMFSGD gossip loop with a
// bounded random neighbor set and nothing but a rendezvous directory
// for bootstrap, must converge to peer-to-peer estimates inside the
// Fig-2 bounds (median ≤ 0.30, p90 ≤ 1.0). Under -race the fleet is
// scaled to 1,000 peers and in -short mode to 256; the bounds are the
// same.
func TestGossipPaperAccuracyAtScale(t *testing.T) {
	numPeers, rounds := 10000, 120
	switch {
	case testutil.RaceEnabled:
		numPeers, rounds = 1000, 100
	case testing.Short():
		numPeers, rounds = 256, 120
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	g, err := NewGossip(GossipConfig{NumPeers: numPeers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for r := 0; r < rounds; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Score a 2,000-pair sample (all pairs on the small fleets): each of
	// 100 sources estimates to the 20 peers that follow it in index
	// order, straight from exchanged coordinates.
	acc, err := g.MeasureAccuracy(ctx, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d rounds=%d: median=%.4f p90=%.4f answered=%d/%d",
		numPeers, rounds, acc.Median, acc.P90, acc.Answered, acc.Queried)
	if acc.Answered == 0 {
		t.Fatal("no peer-to-peer estimates answered")
	}
	if acc.Answered < acc.Queried*9/10 {
		t.Fatalf("only %d/%d estimates answered", acc.Answered, acc.Queried)
	}
	if acc.Median > 0.30 || acc.P90 > 1.0 {
		t.Fatalf("gossip accuracy median=%.4f p90=%.4f exceeds gates (median 0.30, p90 1.0)",
			acc.Median, acc.P90)
	}
}

// TestGossipDeterministicSameSeed: two same-seed fleets driven the same
// number of rounds end with bit-identical coordinates on every peer —
// the property that makes at-scale gossip failures reproducible.
func TestGossipDeterministicSameSeed(t *testing.T) {
	run := func() ([][]float64, int) {
		g, err := NewGossip(GossipConfig{NumPeers: 32, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		failed := 0
		for r := 0; r < 25; r++ {
			f, err := g.GossipRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			failed += f
		}
		return g.Coordinates(), failed
	}
	coordsA, failedA := run()
	coordsB, failedB := run()
	if failedA != failedB {
		t.Fatalf("same seed, different failure counts: %d vs %d", failedA, failedB)
	}
	if !reflect.DeepEqual(coordsA, coordsB) {
		for i := range coordsA {
			if !reflect.DeepEqual(coordsA[i], coordsB[i]) {
				t.Fatalf("same seed, different coordinates at peer %d:\n  run 1: %v\n  run 2: %v",
					i, coordsA[i], coordsB[i])
			}
		}
		t.Fatal("same seed, different coordinates")
	}
}

// TestGossipPartitionHeal: cut a minority of peers off from the rest of
// the fleet (rendezvous included), watch gossip rounds fail and the
// survivors churn the unreachable peers out of their neighbor tables,
// then heal and require the fleet to re-converge inside the gates —
// the cut peers re-bootstrapping through the rendezvous on their own.
func TestGossipPartitionHeal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	g, err := NewGossip(GossipConfig{NumPeers: 48, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for r := 0; r < 100; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Median > 0.30 || base.P90 > 1.0 {
		t.Fatalf("baseline accuracy median=%.4f p90=%.4f out of gates", base.Median, base.P90)
	}

	// Partition the first 12 peers away from everyone else.
	cut := g.PeerNames()[:12]
	if err := g.Net.Partition(cut...); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for r := 0; r < 8; r++ {
		f, err := g.GossipRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		failed += f
	}
	if failed == 0 {
		t.Fatal("no gossip failures while 12 peers were partitioned")
	}
	var churn uint64
	for i := 0; i < g.NumPeers(); i++ {
		churn += g.Peer(i).Stats().Churn
	}
	if churn == 0 {
		t.Fatal("no neighbor churn while 12 peers were partitioned")
	}

	g.Net.Heal()
	for r := 0; r < 80; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The cut peers must have found their way back to live neighbors.
	for _, name := range cut {
		for i := 0; i < g.NumPeers(); i++ {
			if g.Peer(i).Self() == name {
				if n := g.Peer(i).Stats().Neighbors; n == 0 {
					t.Fatalf("%s still has no neighbors after heal", name)
				}
			}
		}
	}
	after, err := g.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline median=%.4f p90=%.4f; post-heal median=%.4f p90=%.4f (failed rounds during cut: %d, churn: %d)",
		base.Median, base.P90, after.Median, after.P90, failed, churn)
	if after.Answered < after.Queried {
		t.Fatalf("post-heal estimates incomplete: %d/%d answered", after.Answered, after.Queried)
	}
	if after.Median > 0.30 || after.P90 > 1.0 {
		t.Fatalf("post-heal accuracy median=%.4f p90=%.4f exceeds gates", after.Median, after.P90)
	}
}

// TestGossipRoundAllocs is the peer path's allocation gate, beside
// TestPointQueryZeroAlloc for the point query: one Peer.GossipRound on
// a warmed 64-peer fleet — instant ping, dial, GossipExchange out,
// handler and PeerStep on the partner, GossipReply back, PeerStep here,
// both table merges, close — stays within 22 heap allocations, both
// ends and the fabric included (AllocsPerRun counts every goroutine).
// What is left is per-connection by construction: the pair record and
// its six channels, a packet copy per write, the serving goroutine, the
// pool's host entry, and a table key for each address new to a
// neighbour table; deliveries, inboxes and table entries allocate
// nothing. The parent of the PR that added this gate measured 156–181;
// the gate was 40 until the neighbour table lost its Go map and simnet
// its per-packet closures, after which ten first attempts read 17–19.
func TestGossipRoundAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	g, err := NewGossip(GossipConfig{NumPeers: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for r := 0; r < 20; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Whatever else the process is doing — an earlier test's fleet still
	// shutting down, a GC cycle emptying the sync.Pools — can only add
	// to the count, never hide an allocation of the path's own, so the
	// least of a few attempts is the path's figure.
	i := 0
	best := math.Inf(1)
	for attempt := 0; attempt < 5 && best > 22; attempt++ {
		allocs := testing.AllocsPerRun(64*10, func() {
			if err := g.Peer(i % g.NumPeers()).GossipRound(ctx); err != nil {
				t.Error(err)
			}
			i++
		})
		t.Logf("attempt %d: %.1f allocs per GossipRound", attempt, allocs)
		best = min(best, allocs)
	}
	if best > 22 {
		t.Fatalf("%.1f allocs per GossipRound, gate is 22", best)
	}
}
