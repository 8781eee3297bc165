// Tests for the client's epoch-recovery contract: when the server refits
// its landmark model in the background, every registered host's vectors
// belong to a dead generation — the client must notice the epoch stamp
// moving in responses and transparently re-fetch, re-solve and
// re-register without its caller seeing an error.
package client

import (
	"context"
	"log"
	"math"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/topology"
)

// epochSystem is testSystem plus handles the lifecycle tests need: the
// server itself (to force refits) and one landmark agent (to inject
// fresh measurements).
func epochSystem(t *testing.T, numHosts, numLM, dim int) (
	*simnet.Network, *server.Server, *landmark.Agent, string, []string,
) {
	t.Helper()
	topo, err := topology.Generate(topology.Config{Seed: 42, NumHosts: numHosts, HostsPerStub: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := simnet.DefaultNames(numHosts)
	nw, err := simnet.New(topo, names, simnet.Config{TimeScale: 1e-5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lmNames := names[:numLM]
	serverName := names[numLM]
	ordinary := names[numLM+1:]

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	srv, err := server.New(server.Config{
		Landmarks: lmNames,
		Dim:       dim,
		Algorithm: core.SVD,
		Seed:      1,
		// Background refits are disabled by the huge interval: epoch
		// bumps in this test happen only when it calls srv.Refit, so
		// every observation is deterministic.
		RefitMinInterval: time.Hour,
		Logger:           log.New(newTestWriter(t), "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srvHost, err := nw.Host(serverName)
	if err != nil {
		t.Fatal(err)
	}
	srvLn, err := srvHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ctx, srvLn) //nolint:errcheck

	var reporter *landmark.Agent
	for _, lm := range lmNames {
		h, err := nw.Host(lm)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := landmark.New(landmark.Config{
			Self:    lm,
			Peers:   lmNames,
			Server:  serverName,
			Dialer:  h,
			Pinger:  h,
			Samples: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.ReportOnce(ctx); err != nil {
			t.Fatalf("landmark %s report: %v", lm, err)
		}
		reporter = agent
	}
	return nw, srv, reporter, serverName, ordinary
}

// forceRefit injects a fresh measurement round and refits synchronously,
// returning the new epoch.
func forceRefit(t *testing.T, ctx context.Context, srv *server.Server, reporter *landmark.Agent) uint64 {
	t.Helper()
	if err := reporter.ReportOnce(ctx); err != nil {
		t.Fatal(err)
	}
	epoch, err := srv.Refit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

func TestClientRecoversAcrossEpochBump(t *testing.T) {
	nw, srv, reporter, srvAddr, ordinary := epochSystem(t, 16, 8, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c1 := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	c2 := newTestClient(t, nw, ordinary[1], srvAddr, 0, 2)
	for _, c := range []*Client{c1, c2} {
		if err := c.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		if c.Epoch() != 1 {
			t.Fatalf("bootstrap epoch = %d, want 1", c.Epoch())
		}
	}
	before, err := c1.EstimateBatch(ctx, []string{ordinary[1]})
	if err != nil || !before[0].Found {
		t.Fatalf("baseline estimate: %+v %v", before, err)
	}

	if e := forceRefit(t, ctx, srv, reporter); e != 2 {
		t.Fatalf("epoch after refit = %d, want 2", e)
	}

	// c2's vectors are now from a dead generation: its next query must
	// transparently re-solve, re-register at epoch 2, and succeed.
	got, err := c2.EstimateBatch(ctx, []string{ordinary[0]})
	if err != nil {
		t.Fatalf("EstimateBatch after refit: %v", err)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("c2 epoch after recovery = %d, want 2", c2.Epoch())
	}
	// c1 has not touched the server since the bump, so it is still
	// evicted and unresolvable as a target.
	if got[0].Found {
		t.Fatal("evicted peer must read as not found until it recovers")
	}

	// c1 recovers through the KNN path and must then see c2.
	neighbors, err := c1.KNearest(ctx, len(ordinary))
	if err != nil {
		t.Fatalf("KNearest after refit: %v", err)
	}
	if c1.Epoch() != 2 {
		t.Fatalf("c1 epoch after recovery = %d, want 2", c1.Epoch())
	}
	foundPeer := false
	for _, n := range neighbors {
		if n.Addr == ordinary[1] {
			foundPeer = true
		}
	}
	if !foundPeer {
		t.Fatalf("recovered c2 missing from c1's neighbors: %+v", neighbors)
	}

	// Both recovered: the estimate must be back and consistent with the
	// pre-refit one (the measurements barely moved).
	after, err := c1.EstimateBatch(ctx, []string{ordinary[1]})
	if err != nil || !after[0].Found {
		t.Fatalf("estimate after recovery: %+v %v", after, err)
	}
	if rel := math.Abs(after[0].Millis-before[0].Millis) / math.Max(before[0].Millis, 1); rel > 0.5 {
		t.Fatalf("estimate moved %.0f%% across refit: %v -> %v", 100*rel, before[0].Millis, after[0].Millis)
	}
}

func TestEstimateToRecoversAcrossEpochBump(t *testing.T) {
	nw, srv, reporter, srvAddr, ordinary := epochSystem(t, 14, 8, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c1 := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	c2 := newTestClient(t, nw, ordinary[1], srvAddr, 0, 2)
	for _, c := range []*Client{c1, c2} {
		if err := c.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
	}

	forceRefit(t, ctx, srv, reporter)

	// c2 rejoins so it is resolvable again; c1 still holds epoch-1 state
	// and a stale (empty) peer cache.
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	// The point-estimate path detects the epoch stamp on the directory
	// response, rejoins, and completes without surfacing an error.
	if _, err := c1.EstimateTo(ctx, ordinary[1]); err != nil {
		t.Fatalf("EstimateTo after refit: %v", err)
	}
	if c1.Epoch() != srv.Epoch() {
		t.Fatalf("c1 epoch = %d, server at %d", c1.Epoch(), srv.Epoch())
	}
}
