// Package topology synthesizes Internet-like network topologies and the
// pairwise round-trip times they induce. It replaces the paper's five
// measurement datasets (NLANR, GNP, AGNP, P2PSim, PL-RTT), which are no
// longer obtainable, with a transit-stub model whose routing layer
// reproduces the structural phenomena the paper's argument depends on:
//
//   - clustered geography (continents), so distance matrices are close to
//     low rank — the property matrix factorization exploits;
//   - sub-optimal inter-domain routing (random path inflation), so a large
//     fraction of host pairs has a shorter two-hop detour and the triangle
//     inequality fails, as measured in [3,20] and cited in §2.2;
//   - optionally asymmetric routing and asymmetric last-mile links [10,15],
//     so D is not a symmetric matrix.
//
// The generator is fully deterministic given Config.Seed.
//
// The probabilistic knobs (InflationProb/Max, StubInflationProb/Max,
// MultihomeProb) treat zero as "use the default" and any negative value
// as an explicit off switch — the same sentinel convention as
// server.Config.IdleTimeout. A config with all three groups negative
// produces exact shortest-path routing: a symmetric distance matrix
// with no triangle-inequality violations.
//
// The routing pass runs one shortest-path search per stub router and
// dominates Generate, so every figure, test fleet and benchmark
// deployment pays it at boot. It costs what the transit-stub graph needs
// (pathSearch): only transit routers wait in the heap, single-homed stubs
// are leaves that are never expanded, dual-homed stubs are expanded when
// they are relaxed, one distance buffer and one typed heap serve every
// source, and the routed distances are written over the searched ones in
// place, in a packed upper triangle that holds each stub pair once; a
// symmetric topology serves both directions from it. At 2,001 stubs a
// Generate takes ~0.07 s, 16 MB and ~2.5k allocations on one core of a
// 2 vCPU Xeon; the container/heap Dijkstra it replaced took ~1.3 s,
// 304 MB and 8.6M.
//
// Every distance is the same float as that Dijkstra's, bit for bit: both
// end each router at the minimum over the same rounded sums d(u) + w(u, v)
// of its neighbours' final distances (pathSearch says why), and
// TestDijkstraMatchesReference and FuzzDijkstraOracle hold the two to it.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ides-go/ides/internal/mat"
)

// Config parameterizes topology generation. Latencies are one-way
// milliseconds; RTTs in the produced matrix are two-way.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64
	// NumHosts is the number of end hosts.
	NumHosts int
	// ContinentWeights gives the relative probability of a host (and its
	// stub domain) being placed on each continent. Its length fixes the
	// number of continents. Default: {0.45, 0.25, 0.2, 0.1}.
	ContinentWeights []float64
	// HostsPerStub controls how many hosts share one stub domain.
	// Default 5.
	HostsPerStub int

	// InflationProb is the probability that an unordered pair of *transit
	// domains* suffers sub-optimal inter-domain routing; every path between
	// their customer stubs is stretched by a shared factor in
	// [1, 1+InflationMax]. Because the factor is shared by all stub pairs
	// homed on the two transits, this noise is low rank — real policy
	// routing correlates the same way (a stub inherits its provider's
	// paths). Default 0.5 / 0.8; a negative value in either field
	// disables inflation entirely (zero selects the default).
	InflationProb float64
	InflationMax  float64
	// StubInflationProb adds independent per-stub-pair stretch in
	// [1, 1+StubInflationMax] on top, modeling site-local detours. This
	// noise is full rank, so it sets the error floor a low-dimensional
	// model cannot cross. Defaults 0.3 / 0.25; negative disables.
	StubInflationProb float64
	StubInflationMax  float64
	// AsymmetryProb is the probability that an inflated transit pair is
	// also direction-asymmetric: a uniformly random one of the pair's two
	// directions gains an extra factor in [1, 1+AsymmetryMax]. Zero
	// yields a symmetric matrix. Defaults 0 / 0.
	AsymmetryProb float64
	AsymmetryMax  float64
	// HostAsymmetryMax, when positive, gives each host's last-mile link
	// independent up/down latencies differing by up to this many ms,
	// modeling broadband up/down capacity gaps [10].
	HostAsymmetryMax float64
	// MultihomeProb is the probability a stub domain connects to a second
	// transit router. Default 0.25; negative disables multihoming.
	MultihomeProb float64
}

// The shape every dataset and benchmark topology was generated with.
// Latencies are one-way milliseconds.
const (
	// transitPerContinent is the number of backbone routers per continent.
	transitPerContinent = 4
	// interContinentMin/Max bound intercontinental backbone links.
	interContinentMin, interContinentMax = 25, 90
	// intraContinentMin/Max bound links between backbone routers of one
	// continent.
	intraContinentMin, intraContinentMax = 2, 18
	// stubMin/Max bound the stub-to-transit access link.
	stubMin, stubMax = 0.5, 5
	// hostMin/Max bound the host last-mile link.
	hostMin, hostMax = 0.1, 3
)

func (c Config) withDefaults() Config {
	if len(c.ContinentWeights) == 0 {
		c.ContinentWeights = []float64{0.45, 0.25, 0.2, 0.1}
	}
	if c.HostsPerStub <= 0 {
		c.HostsPerStub = 5
	}
	// Zero-valued knobs select the defaults; a negative value is the
	// explicit off switch (matching the Server.IdleTimeout convention)
	// and clamps to zero, so "disabled" is expressible and a negative
	// max can never deflate a routed path below its shortest path.
	if c.InflationProb == 0 && c.InflationMax == 0 {
		c.InflationProb, c.InflationMax = 0.5, 0.8
	}
	if c.InflationProb < 0 {
		c.InflationProb = 0
	}
	if c.InflationMax < 0 {
		c.InflationMax = 0
	}
	if c.StubInflationProb == 0 && c.StubInflationMax == 0 {
		c.StubInflationProb, c.StubInflationMax = 0.3, 0.25
	}
	if c.StubInflationProb < 0 {
		c.StubInflationProb = 0
	}
	if c.StubInflationMax < 0 {
		c.StubInflationMax = 0
	}
	if c.MultihomeProb == 0 {
		c.MultihomeProb = 0.25
	}
	if c.MultihomeProb < 0 {
		c.MultihomeProb = 0
	}
	return c
}

// Host describes where an end host attaches.
type Host struct {
	Continent int
	Stub      int // stub domain index
	// Up and Down are the last-mile one-way latencies (host→stub and
	// stub→host); they differ when HostAsymmetryMax > 0.
	Up, Down float64
}

// Topology is a generated network together with its routed one-way
// distances.
type Topology struct {
	Hosts []Host
	// fwd and rev are the routed (possibly inflated, possibly asymmetric)
	// one-way latencies between stub routers, packed upper triangles of
	// numStubs·(numStubs−1)/2 entries: for a < b, fwd[tri(numStubs, a, b)]
	// is a → b and rev[tri(numStubs, a, b)] is b → a. Unless
	// AsymmetryProb > 0 the transit stretch is symmetric bit for bit, and
	// rev is fwd, the same slice. stubDist reads them.
	fwd, rev []float64
	numStubs int
	// stubHome[s] is the transit router stub s is (primarily) homed on —
	// the attachment the level-1 inflation keys off.
	stubHome []int
}

// routers draws each stub domain's continent and builds the router graph:
// transit routers first (transitPerContinent per continent), then one
// router per stub domain. stubHome[s] is the transit router stub s is
// primarily homed on.
func routers(cfg Config, rng *rand.Rand) (g *graph, stubContinent, stubHome []int, err error) {
	numContinents := len(cfg.ContinentWeights)
	numTransit := numContinents * transitPerContinent
	numStubs := (cfg.NumHosts + cfg.HostsPerStub - 1) / cfg.HostsPerStub
	if numStubs < 1 {
		numStubs = 1
	}

	// Assign each stub domain to a continent by weight.
	cum := make([]float64, numContinents)
	var total float64
	for i, w := range cfg.ContinentWeights {
		if w < 0 {
			return nil, nil, nil, fmt.Errorf("topology: negative continent weight %v", w)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, nil, nil, fmt.Errorf("topology: continent weights sum to %v", total)
	}
	stubContinent = make([]int, numStubs)
	for s := range stubContinent {
		r := rng.Float64() * total
		for ci, c := range cum {
			if r <= c {
				stubContinent[s] = ci
				break
			}
		}
	}

	g = newGraph(numTransit + numStubs)
	transitID := func(cont, k int) int { return cont*transitPerContinent + k }
	// Intra-continent backbone: ring plus random chords keeps the graph
	// sparse but well-connected.
	for c := 0; c < numContinents; c++ {
		n := transitPerContinent
		for k := 0; k < n; k++ {
			next := transitID(c, (k+1)%n)
			g.addEdge(transitID(c, k), next, uniform(rng, intraContinentMin, intraContinentMax))
		}
		extra := n / 2
		for e := 0; e < extra; e++ {
			a := transitID(c, rng.Intn(n))
			b := transitID(c, rng.Intn(n))
			if a != b {
				g.addEdge(a, b, uniform(rng, intraContinentMin, intraContinentMax))
			}
		}
	}
	// Intercontinental links: every continent pair gets 1–2 links whose
	// latency grows with index distance (a crude stand-in for geography).
	for c1 := 0; c1 < numContinents; c1++ {
		for c2 := c1 + 1; c2 < numContinents; c2++ {
			links := 1 + rng.Intn(2)
			spread := 1 + 0.35*float64(c2-c1-1)
			for l := 0; l < links; l++ {
				a := transitID(c1, rng.Intn(transitPerContinent))
				b := transitID(c2, rng.Intn(transitPerContinent))
				lat := uniform(rng, interContinentMin, interContinentMax) * spread
				g.addEdge(a, b, lat)
			}
		}
	}
	// Stub access links.
	stubHome = make([]int, numStubs)
	for s := 0; s < numStubs; s++ {
		home := transitID(stubContinent[s], rng.Intn(transitPerContinent))
		stubHome[s] = home
		g.addEdge(numTransit+s, home, uniform(rng, stubMin, stubMax))
		if rng.Float64() < cfg.MultihomeProb {
			second := transitID(stubContinent[s], rng.Intn(transitPerContinent))
			if second != home {
				g.addEdge(numTransit+s, second, uniform(rng, stubMin, stubMax))
			}
		}
	}
	return g, stubContinent, stubHome, nil
}

// Generate builds a topology per cfg.
func Generate(cfg Config) (*Topology, error) {
	cfg = cfg.withDefaults()
	if cfg.NumHosts <= 0 {
		return nil, fmt.Errorf("topology: NumHosts must be positive, got %d", cfg.NumHosts)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g, stubContinent, stubHome, err := routers(cfg, rng)
	if err != nil {
		return nil, err
	}
	numStubs := len(stubContinent)
	numTransit := len(g.adj) - numStubs

	// Shortest paths between all stub routers, upper triangle only: row s
	// of the packed triangle holds the distances from stub s to every later
	// stub, and the level-2 pass below overwrites each pair with its routed
	// distances in place.
	fwd := make([]float64, numStubs*(numStubs-1)/2)
	sp := newPathSearch(g)
	for s := 0; s < numStubs-1; s++ {
		dist := sp.from(numTransit + s)
		copy(fwd[tri(numStubs, s, s+1):], dist[numTransit+s+1:])
	}

	// Policy inflation, level 1: transit-domain pairs. The same (possibly
	// direction-dependent) stretch applies to every stub pair homed on the
	// two transits, producing correlated, low-rank sub-optimality.
	// tInf.At(a, b) is the stretch applied to traffic routed in the
	// direction transit a → transit b.
	tInf := mat.NewDense(numTransit, numTransit)
	tInf.Fill(1)
	for a := 0; a < numTransit; a++ {
		for b := a + 1; b < numTransit; b++ {
			if rng.Float64() < cfg.InflationProb {
				f := 1 + rng.Float64()*cfg.InflationMax
				fwd, rev := f, f
				if cfg.AsymmetryProb > 0 && rng.Float64() < cfg.AsymmetryProb {
					// The extra stretch lands on a uniformly random one of
					// the pair's two directions. Always stretching a→b
					// (the iteration order) would correlate the slow
					// direction with transit index order globally: for
					// every asymmetric pair the low→high-index direction
					// would be the slow one.
					stretch := 1 + rng.Float64()*cfg.AsymmetryMax
					if rng.Float64() < 0.5 {
						fwd *= stretch
					} else {
						rev *= stretch
					}
				}
				tInf.Set(a, b, fwd)
				tInf.Set(b, a, rev)
			}
		}
	}
	// Level 2: independent per-stub-pair stretch (full-rank residual).
	// Intra-stub traffic is never inflated. The undirected shortest path is
	// symmetric by construction, but the searches from a and from b sum the
	// same edges in different orders and can disagree in the last ulp; the
	// one from a serves both directions so the only asymmetry is the
	// intentional kind from tInf, and a fully disabled config is bitwise
	// symmetric. Without asymmetric transit pairs tInf is symmetric, so both
	// directions are the same product and rev shares fwd's storage.
	rev := fwd
	if cfg.AsymmetryProb > 0 {
		rev = make([]float64, len(fwd))
	}
	inf := tInf.Data()
	k := 0
	for a := 0; a < numStubs; a++ {
		ta := stubHome[a]
		for b := a + 1; b < numStubs; b++ {
			local := 1.0
			if rng.Float64() < cfg.StubInflationProb {
				local = 1 + rng.Float64()*cfg.StubInflationMax
			}
			tb := stubHome[b]
			base := fwd[k]
			fwd[k] = base * inf[ta*numTransit+tb] * local
			rev[k] = base * inf[tb*numTransit+ta] * local
			k++
		}
	}

	// Hosts.
	hosts := make([]Host, cfg.NumHosts)
	for h := range hosts {
		s := h % numStubs
		up := uniform(rng, hostMin, hostMax)
		down := up
		if cfg.HostAsymmetryMax > 0 {
			down = up + rng.Float64()*cfg.HostAsymmetryMax
			if rng.Float64() < 0.5 {
				up, down = down, up
			}
		}
		hosts[h] = Host{Continent: stubContinent[s], Stub: s, Up: up, Down: down}
	}

	return &Topology{Hosts: hosts, fwd: fwd, rev: rev, numStubs: numStubs, stubHome: stubHome}, nil
}

// tri is the index of stub pair (a, b), a < b, in an n-stub packed upper
// triangle: the rows before a hold n−1, n−2, …, n−a entries.
func tri(n, a, b int) int {
	return a*(2*n-a-1)/2 + b - a - 1
}

// stubDist returns the routed one-way latency from stub a's router to stub
// b's router; zero when a == b.
func (t *Topology) stubDist(a, b int) float64 {
	switch {
	case a < b:
		return t.fwd[tri(t.numStubs, a, b)]
	case a > b:
		return t.rev[tri(t.numStubs, b, a)]
	}
	return 0
}

// OneWay returns the routed one-way latency from host i to host j in ms.
func (t *Topology) OneWay(i, j int) float64 {
	if i == j {
		return 0
	}
	hi, hj := t.Hosts[i], t.Hosts[j]
	if hi.Stub == hj.Stub {
		// Same stub domain: traffic stays on the local segment.
		return hi.Up + hj.Down
	}
	// Access links sum before the routed path: float addition commutes
	// but does not associate, so this order makes OneWay(i,j) and
	// OneWay(j,i) bitwise equal whenever the underlying links are
	// symmetric, instead of differing in the last ulp.
	return hi.Up + hj.Down + t.stubDist(hi.Stub, hj.Stub)
}

// RTT returns the round-trip time from host i to host j as measured from i:
// the forward one-way latency plus the reverse one. Note RTT(i,j) equals
// RTT(j,i) only when the topology is symmetric.
func (t *Topology) RTT(i, j int) float64 {
	if i == j {
		return 0
	}
	return t.OneWay(i, j) + t.OneWay(j, i)
}

// Directed returns the full matrix of directed distances d(i,j) =
// OneWay(i,j)*2, i.e. the "RTT as seen by the forward path"; with
// asymmetric routing d(i,j) != d(j,i), which is how the AGNP dataset is
// modeled.
func (t *Topology) Directed() *mat.Dense {
	n := len(t.Hosts)
	d := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j := 0; j < n; j++ {
			if i != j {
				row[j] = 2 * t.OneWay(i, j)
			}
		}
	}
	return d
}

// RTTMatrix returns the full symmetric RTT matrix.
func (t *Topology) RTTMatrix() *mat.Dense {
	n := len(t.Hosts)
	d := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := t.RTT(i, j)
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Float64()*(hi-lo)
}

// graph is a small undirected weighted graph.
type graph struct {
	adj [][]edge
}

type edge struct {
	to int
	w  float64
}

func newGraph(n int) *graph {
	return &graph{adj: make([][]edge, n)}
}

func (g *graph) addEdge(a, b int, w float64) {
	g.adj[a] = append(g.adj[a], edge{to: b, w: w})
	g.adj[b] = append(g.adj[b], edge{to: a, w: w})
}

// pathSearch runs single-source shortest paths over one graph, reusing
// its distance buffer, heap and chain stack from source to source.
//
// Only branching routers (degree ≥ 3) wait in the heap. A degree-2
// router — a dual-homed stub, a link in a chain — is expanded as soon as
// it is relaxed, and again each time its distance falls, so its last
// expansion offers its neighbours the same rounded d + w that popping it
// off a heap would. A leaf (degree 1) takes its distance when it is
// relaxed and is never expanded: its one edge leads back to where that
// distance came from, and d + w + w cannot undercut d. Every router is
// thus expanded at its final distance, every value ever offered is a
// rounded path sum no smaller than the heap search's result (adding a
// nonnegative weight never decreases a float), and each router ends at
// the heap search's minimum over its neighbours' d + w, bit for bit.
type pathSearch struct {
	g     *graph
	dist  []float64
	heap  []distItem
	chain []int
}

func newPathSearch(g *graph) *pathSearch {
	return &pathSearch{g: g, dist: make([]float64, len(g.adj))}
}

// from returns the shortest distances from src to every node;
// unreachable nodes get +Inf. The slice is reused by the next call.
func (p *pathSearch) from(src int) []float64 {
	dist := p.dist
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	p.heap = p.heap[:0]
	p.expand(src)
	for len(p.heap) > 0 {
		item := p.pop()
		if item.d > dist[item.node] {
			continue
		}
		p.expand(item.node)
	}
	return dist
}

// expand relaxes u's edges at u's current distance, and those of every
// degree-2 router whose distance falls on the way.
func (p *pathSearch) expand(u int) {
	adj, dist := p.g.adj, p.dist
	chain := append(p.chain[:0], u)
	for len(chain) > 0 {
		u := chain[len(chain)-1]
		chain = chain[:len(chain)-1]
		du := dist[u]
		for _, e := range adj[u] {
			if nd := du + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				switch len(adj[e.to]) {
				case 1: // a leaf is never expanded
				case 2:
					chain = append(chain, e.to)
				default:
					p.push(distItem{node: e.to, d: nd})
				}
			}
		}
	}
	p.chain = chain
}

type distItem struct {
	node int
	d    float64
}

// push and pop keep p.heap a binary min-heap on d.
func (p *pathSearch) push(it distItem) {
	h := append(p.heap, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	p.heap = h
}

func (p *pathSearch) pop() distItem {
	h := p.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].d < h[j].d {
			j++
		}
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	p.heap = h[:n]
	return it
}
