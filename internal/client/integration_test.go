// Integration tests: the full IDES service — information server, landmark
// agents, ordinary-host clients — running over the simnet virtual network,
// with estimates validated against the ground-truth topology.
package client

import (
	"context"
	"log"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/topology"
)

// testSystem spins up a complete IDES deployment on a fresh topology:
// hosts 0..numLM-1 are landmarks, host numLM runs the server, the rest are
// ordinary hosts. It returns the network, the topology, the server address
// and the ordinary host names, plus a cancel to tear everything down.
func testSystem(t *testing.T, numHosts, numLM, dim int, alg core.Algorithm) (
	*simnet.Network, *topology.Topology, string, []string, context.CancelFunc,
) {
	t.Helper()
	// One host per stub: landmarks and hosts are distinct sites, as in the
	// paper's datasets (co-located landmarks make low-rank fits of the tiny
	// intra-stub distances pointless and are not how IDES is deployed).
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

	// Server.
	srv, err := server.New(server.Config{
		Landmarks: lmNames,
		Dim:       dim,
		Algorithm: alg,
		Seed:      1,
		Logger:    log.New(newTestWriter(t), "", 0),
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

	// Landmark agents: one report each is enough to fit the model.
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
	}
	t.Cleanup(cancel)
	return nw, topo, serverName, ordinary, cancel
}

// testWriter logs through t until the test has ended. The server's
// refitter logs from its own goroutine, which can outlive the test:
// a line after the end is dropped rather than panicking in Logf.
type testWriter struct {
	t    *testing.T
	mu   sync.Mutex
	done bool
}

func newTestWriter(t *testing.T) *testWriter {
	w := &testWriter{t: t}
	t.Cleanup(func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.done = true
	})
	return w
}

func (w *testWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.done {
		w.t.Logf("%s", p)
	}
	return len(p), nil
}

func newTestClient(t *testing.T, nw *simnet.Network, self, srv string, k int, seed int64) *Client {
	t.Helper()
	h, err := nw.Host(self)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Self:    self,
		Server:  srv,
		Dialer:  h,
		Pinger:  h,
		Samples: 4,
		K:       k,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFullSystemEndToEnd(t *testing.T) {
	nw, topo, srvAddr, ordinary, _ := testSystem(t, 28, 10, 6, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Bootstrap every ordinary host (measure all landmarks).
	clients := make([]*Client, 0, len(ordinary))
	for i, name := range ordinary {
		c := newTestClient(t, nw, name, srvAddr, 0, int64(i))
		if err := c.Bootstrap(ctx); err != nil {
			t.Fatalf("bootstrap %s: %v", name, err)
		}
		clients = append(clients, c)
	}

	// Estimate all pairwise ordinary-host distances and compare to truth.
	nameToIdx := make(map[string]int)
	for i := 0; i < topo.NumHosts(); i++ {
		nameToIdx[simnet.DefaultNames(topo.NumHosts())[i]] = i
	}
	var errs []float64
	for i, c := range clients {
		for j, peer := range ordinary {
			if ordinary[i] == peer {
				continue
			}
			est, err := c.EstimateTo(ctx, peer)
			if err != nil {
				t.Fatalf("estimate %s→%s: %v", ordinary[i], peer, err)
			}
			truth := topo.RTT(nameToIdx[ordinary[i]], nameToIdx[ordinary[j]])
			errs = append(errs, stats.RelativeError(truth, est))
		}
	}
	med := stats.Median(errs)
	if med > 0.25 {
		t.Fatalf("median end-to-end relative error %v, want < 0.25", med)
	}
	t.Logf("end-to-end: %s", stats.Summarize(errs))
}

func TestPartialLandmarkBootstrap(t *testing.T) {
	// K=7 of 10 landmarks (§5.2): the client must come up and stay usable.
	nw, topo, srvAddr, ordinary, _ := testSystem(t, 24, 10, 5, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c1 := newTestClient(t, nw, ordinary[0], srvAddr, 7, 1)
	if err := c1.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, nw, ordinary[1], srvAddr, 7, 2)
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	est, err := c1.EstimateTo(ctx, ordinary[1])
	if err != nil {
		t.Fatal(err)
	}
	names := simnet.DefaultNames(topo.NumHosts())
	var i1, i2 int
	for idx, n := range names {
		if n == ordinary[0] {
			i1 = idx
		}
		if n == ordinary[1] {
			i2 = idx
		}
	}
	truth := topo.RTT(i1, i2)
	if relErr := stats.RelativeError(truth, est); relErr > 0.6 {
		t.Fatalf("partial-landmark estimate error %v (est %v truth %v)", relErr, est, truth)
	}
}

func TestBootstrapFailsWithTooFewLandmarks(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 20, 8, 6, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := newTestClient(t, nw, ordinary[0], srvAddr, 3, 1) // K=3 < d=6
	if err := c.Bootstrap(ctx); err == nil {
		t.Fatal("K < dim must fail bootstrap")
	}
}

func TestEstimateBeforeBootstrap(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 20, 8, 4, core.SVD)
	c := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if _, err := c.EstimateTo(context.Background(), ordinary[1]); err == nil {
		t.Fatal("estimate before bootstrap must fail")
	}
}

func TestEstimateUnregisteredPeer(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 20, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EstimateTo(ctx, ordinary[5]); err == nil {
		t.Fatal("estimating to an unregistered peer must fail")
	}
}

func TestEstimateToLandmarkUsesModel(t *testing.T) {
	nw, topo, srvAddr, ordinary, _ := testSystem(t, 20, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	est, err := c.EstimateTo(ctx, "host-0") // a landmark
	if err != nil {
		t.Fatal(err)
	}
	names := simnet.DefaultNames(topo.NumHosts())
	var selfIdx int
	for idx, n := range names {
		if n == ordinary[0] {
			selfIdx = idx
		}
	}
	truth := topo.RTT(selfIdx, 0)
	if relErr := stats.RelativeError(truth, est); relErr > 0.5 {
		t.Fatalf("host→landmark estimate error %v (est %v truth %v)", relErr, est, truth)
	}
}

func TestNearestMirrorSelection(t *testing.T) {
	nw, topo, srvAddr, ordinary, _ := testSystem(t, 30, 10, 6, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Mirrors: three ordinary hosts; client: a fourth.
	mirrors := ordinary[:3]
	for i, m := range mirrors {
		mc := newTestClient(t, nw, m, srvAddr, 0, int64(10+i))
		if err := mc.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cl := newTestClient(t, nw, ordinary[3], srvAddr, 0, 99)
	if err := cl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	got, gotDist, err := cl.Nearest(ctx, mirrors)
	if err != nil {
		t.Fatal(err)
	}
	if gotDist <= 0 {
		t.Fatalf("nearest distance %v", gotDist)
	}

	// The chosen mirror must be near-optimal in true RTT: within 2x of the
	// true best (coordinate systems pick the exact argmin most but not all
	// of the time; the paper evaluates this as a distribution).
	names := simnet.DefaultNames(topo.NumHosts())
	idxOf := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("unknown name %s", name)
		return -1
	}
	self := idxOf(ordinary[3])
	bestTruth := math.Inf(1)
	for _, m := range mirrors {
		if d := topo.RTT(self, idxOf(m)); d < bestTruth {
			bestTruth = d
		}
	}
	chosen := topo.RTT(self, idxOf(got))
	if chosen > 2*bestTruth+1 {
		t.Fatalf("mirror selection picked %v ms, true best %v ms", chosen, bestTruth)
	}
}

// TestEstimateBatchMatchesPointQueries bootstraps several hosts, then
// checks the one-round-trip batch answers agree with per-target point
// estimates, and that unknown targets are flagged rather than fatal.
func TestEstimateBatchMatchesPointQueries(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 26, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	peers := ordinary[:4]
	for i, name := range peers {
		c := newTestClient(t, nw, name, srvAddr, 0, int64(20+i))
		if err := c.Bootstrap(ctx); err != nil {
			t.Fatalf("bootstrap %s: %v", name, err)
		}
	}
	cl := newTestClient(t, nw, ordinary[5], srvAddr, 0, 77)
	if err := cl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	targets := append(append([]string{}, peers...), "ghost-host", "host-0" /* landmark */)
	got, err := cl.EstimateBatch(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(targets) {
		t.Fatalf("batch returned %d of %d", len(got), len(targets))
	}
	for i, e := range got {
		if e.Addr != targets[i] {
			t.Fatalf("result %d is for %q want %q", i, e.Addr, targets[i])
		}
		if targets[i] == "ghost-host" {
			if e.Found {
				t.Fatal("ghost target must be not-found")
			}
			continue
		}
		if !e.Found {
			t.Fatalf("target %s not found", targets[i])
		}
		point, err := cl.EstimateTo(ctx, targets[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(point-e.Millis) > 1e-9 {
			t.Fatalf("target %s: batch %v != point %v", targets[i], e.Millis, point)
		}
	}
}

func TestEstimateBatchBeforeBootstrap(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 20, 8, 4, core.SVD)
	c := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if _, err := c.EstimateBatch(context.Background(), []string{"x"}); err == nil {
		t.Fatal("EstimateBatch before bootstrap must fail")
	}
	if _, err := c.KNearest(context.Background(), 3); err == nil {
		t.Fatal("KNearest before bootstrap must fail")
	}
}

// TestKNearestService: the k-NN answer comes back sorted, excludes the
// querying host, and its first entry agrees with Nearest over the same
// peer set.
func TestKNearestService(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 26, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	peers := ordinary[:5]
	for i, name := range peers {
		c := newTestClient(t, nw, name, srvAddr, 0, int64(30+i))
		if err := c.Bootstrap(ctx); err != nil {
			t.Fatalf("bootstrap %s: %v", name, err)
		}
	}
	cl := newTestClient(t, nw, ordinary[6], srvAddr, 0, 88)
	if err := cl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	nbs, err := cl.KNearest(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 {
		t.Fatalf("got %d neighbors want 3", len(nbs))
	}
	for i, nb := range nbs {
		if nb.Addr == ordinary[6] {
			t.Fatal("KNearest must exclude self")
		}
		if i > 0 && nb.Millis < nbs[i-1].Millis {
			t.Fatal("neighbors not ascending")
		}
	}
	// One KNearest call replaces Nearest over all registered peers.
	best, bestDist, err := cl.Nearest(ctx, peers)
	if err != nil {
		t.Fatal(err)
	}
	if nbs[0].Addr != best || math.Abs(nbs[0].Millis-bestDist) > 1e-9 {
		t.Fatalf("KNearest[0] = %+v, Nearest = %s@%v", nbs[0], best, bestDist)
	}

	// k larger than the directory: all peers + self are registered, so at
	// most len(peers)+1-1 results.
	all, err := cl.KNearest(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(peers) {
		t.Fatalf("k>n returned %d want %d", len(all), len(peers))
	}

	if _, err := cl.KNearest(ctx, 0); err == nil {
		t.Fatal("k=0 must fail client-side")
	}
}

// TestBatchQueryReRegistersAfterTTLExpiry: a long-lived client whose
// directory entry the server's HostTTL reaped must transparently
// re-register (it still holds its solved vectors) and keep answering.
func TestBatchQueryReRegistersAfterTTLExpiry(t *testing.T) {
	topo, err := topology.Generate(topology.Config{Seed: 42, NumHosts: 22, HostsPerStub: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := simnet.DefaultNames(22)
	nw, err := simnet.New(topo, names, simnet.Config{TimeScale: 1e-5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lmNames := names[:8]
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv, err := server.New(server.Config{
		Landmarks: lmNames, Dim: 4, Algorithm: core.SVD, Seed: 1,
		HostTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// Drive TTL expiry with an injected clock instead of sleeping the
	// wall clock out: SetNow swaps the clock the directory sweeps and
	// the refit debounce read.
	var clockMu sync.Mutex
	now := time.Now()
	srv.SetNow(func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	})
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	srvHost, err := nw.Host(names[8])
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srvHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ctx, ln) //nolint:errcheck
	for _, lm := range lmNames {
		h, err := nw.Host(lm)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := landmark.New(landmark.Config{
			Self: lm, Peers: lmNames, Server: names[8], Dialer: h, Pinger: h, Samples: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.ReportOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	c1 := newTestClient(t, nw, names[9], names[8], 0, 1)
	if err := c1.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, nw, names[10], names[8], 0, 2)
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	// Let both entries expire, then refresh only the target so the source
	// side is what's missing. The clock is frozen between steps, so the
	// refreshed entry can never expire mid-recovery however slow CI is.
	advance(2 * time.Second)
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	ests, err := c1.EstimateBatch(ctx, []string{names[10]})
	if err != nil {
		t.Fatalf("EstimateBatch after TTL expiry: %v", err)
	}
	if !ests[0].Found {
		t.Fatal("refreshed target must resolve after source re-registration")
	}
	if srv.NumHosts() < 2 {
		t.Fatalf("NumHosts = %d, source did not re-register", srv.NumHosts())
	}
	// KNearest takes the same recovery path.
	advance(2 * time.Second)
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	nbs, err := c1.KNearest(ctx, 1)
	if err != nil {
		t.Fatalf("KNearest after TTL expiry: %v", err)
	}
	if len(nbs) != 1 || nbs[0].Addr != names[10] {
		t.Fatalf("KNearest after recovery = %+v", nbs)
	}
}

func TestNMFSystemEndToEnd(t *testing.T) {
	nw, topo, srvAddr, ordinary, _ := testSystem(t, 22, 8, 4, core.NMF)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c1 := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if err := c1.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, nw, ordinary[1], srvAddr, 0, 2)
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	est, err := c1.EstimateTo(ctx, ordinary[1])
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 {
		t.Fatalf("NMF-based estimate %v must not be negative", est)
	}
	names := simnet.DefaultNames(topo.NumHosts())
	var i1, i2 int
	for idx, n := range names {
		if n == ordinary[0] {
			i1 = idx
		}
		if n == ordinary[1] {
			i2 = idx
		}
	}
	if relErr := stats.RelativeError(topo.RTT(i1, i2), est); relErr > 0.8 {
		t.Fatalf("NMF estimate error %v", relErr)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must be rejected")
	}
	if _, err := New(Config{Self: "x"}); err == nil {
		t.Fatal("missing server must be rejected")
	}
	if _, err := New(Config{Self: "x", Server: "y"}); err == nil {
		t.Fatal("missing dialer/pinger must be rejected")
	}
}

func TestEstimateFromAndCacheInvalidation(t *testing.T) {
	nw, topo, srvAddr, ordinary, _ := testSystem(t, 22, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c1 := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if err := c1.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, nw, ordinary[1], srvAddr, 0, 2)
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	to, err := c1.EstimateTo(ctx, ordinary[1])
	if err != nil {
		t.Fatal(err)
	}
	from, err := c1.EstimateFrom(ctx, ordinary[1])
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric topology + symmetric measurements: both directions should
	// be close (not necessarily identical: different least-squares fits).
	if stats.RelativeError(to, from) > 0.5 && stats.RelativeError(from, to) > 0.5 {
		t.Fatalf("directions wildly inconsistent: to=%v from=%v", to, from)
	}
	_ = topo

	// After invalidation the estimate is re-fetched and identical (server
	// state unchanged).
	c1.InvalidateCache()
	again, err := c1.EstimateTo(ctx, ordinary[1])
	if err != nil {
		t.Fatal(err)
	}
	if again != to {
		t.Fatalf("estimate changed after cache invalidation: %v vs %v", again, to)
	}
}

func TestNearestNoCandidates(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 20, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Nearest(ctx, nil); err == nil {
		t.Fatal("Nearest with no candidates must fail")
	}
	// All candidates unusable: error mentions the cause.
	if _, _, err := c.Nearest(ctx, []string{"ghost-1", "ghost-2"}); err == nil {
		t.Fatal("Nearest with only unregistered candidates must fail")
	}
}

func TestRebootstrapRefreshesVectors(t *testing.T) {
	nw, _, srvAddr, ordinary, _ := testSystem(t, 20, 8, 4, core.SVD)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := newTestClient(t, nw, ordinary[0], srvAddr, 0, 1)
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	v1, _ := c.Vectors()
	// Bootstrapping again succeeds and yields equivalent vectors (same
	// measurements, same model).
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	v2, _ := c.Vectors()
	if len(v1.Out) != len(v2.Out) {
		t.Fatal("dimension changed across re-bootstrap")
	}
}
