package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ides-go/ides/internal/mat"
)

func mustGen(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestGenerateBasics(t *testing.T) {
	topo := mustGen(t, Config{Seed: 1, NumHosts: 50})
	if topo.NumHosts() != 50 {
		t.Fatalf("NumHosts = %d", topo.NumHosts())
	}
	for i, h := range topo.Hosts {
		if h.Up <= 0 || h.Down <= 0 {
			t.Fatalf("host %d has non-positive last-mile latency %+v", i, h)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Seed: 1, NumHosts: 0}); err == nil {
		t.Fatal("expected error for zero hosts")
	}
	if _, err := Generate(Config{Seed: 1, NumHosts: 5, ContinentWeights: []float64{-1, 2}}); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestDistancesPositiveAndFinite(t *testing.T) {
	topo := mustGen(t, Config{Seed: 2, NumHosts: 60})
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			d := topo.OneWay(i, j)
			if i == j {
				if d != 0 {
					t.Fatalf("OneWay(%d,%d) = %v want 0", i, j, d)
				}
				continue
			}
			if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
				t.Fatalf("OneWay(%d,%d) = %v", i, j, d)
			}
			if d > 1e6 {
				t.Fatalf("OneWay(%d,%d) = %v suggests a disconnected graph", i, j, d)
			}
		}
	}
	// The router graph is connected by construction, so no stub pair of
	// any generator shape is routed at the search's +Inf sentinel.
	for seed := int64(1); seed <= routingSeeds; seed++ {
		for _, cfg := range generatorConfigs(seed) {
			topo := mustGen(t, cfg)
			for a := 0; a < topo.numStubs; a++ {
				for b := 0; b < topo.numStubs; b++ {
					if d := topo.stubDist(a, b); a != b && !(d > 0 && d <= math.MaxFloat64) {
						t.Fatalf("%+v: stubs %d → %d routed at %v", cfg, a, b, d)
					}
				}
			}
		}
	}
}

func TestRTTSymmetricWhenNoAsymmetry(t *testing.T) {
	topo := mustGen(t, Config{Seed: 3, NumHosts: 40})
	d := topo.RTTMatrix()
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("RTTMatrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDirectedAsymmetric(t *testing.T) {
	topo := mustGen(t, Config{
		Seed: 4, NumHosts: 60,
		AsymmetryProb: 0.8, AsymmetryMax: 0.5, HostAsymmetryMax: 5,
	})
	d := topo.Directed()
	var asym int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if math.Abs(d.At(i, j)-d.At(j, i)) > 0.05*math.Max(d.At(i, j), d.At(j, i)) {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("asymmetric config must yield asymmetric directed distances")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := mustGen(t, Config{Seed: 5, NumHosts: 30})
	b := mustGen(t, Config{Seed: 5, NumHosts: 30})
	if !a.RTTMatrix().Equal(b.RTTMatrix(), 0) {
		t.Fatal("same seed must reproduce the same topology")
	}
	c := mustGen(t, Config{Seed: 6, NumHosts: 30})
	if a.RTTMatrix().Equal(c.RTTMatrix(), 1e-9) {
		t.Fatal("different seeds should differ")
	}
}

func TestInflationCreatesTriangleViolations(t *testing.T) {
	topo := mustGen(t, Config{Seed: 7, NumHosts: 80, InflationProb: 0.6, InflationMax: 1.0})
	d := topo.RTTMatrix()
	n := 80
	var violated, total int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			total++
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if d.At(i, k)+d.At(k, j) < d.At(i, j)*0.98 {
					violated++
					break
				}
			}
		}
	}
	frac := float64(violated) / float64(total)
	if frac < 0.1 {
		t.Fatalf("triangle violation fraction %v too low; inflation is not working", frac)
	}
}

func TestNoInflationFewViolations(t *testing.T) {
	// With inflation disabled, routed shortest-path distances violate the
	// triangle inequality only through last-mile constants; the fraction
	// must be far below the inflated case.
	topo := mustGen(t, Config{
		Seed: 8, NumHosts: 60,
		InflationProb: 1e-12, InflationMax: 1e-12,
		StubInflationProb: 1e-12, StubInflationMax: 1e-12,
	})
	d := topo.RTTMatrix()
	n := 60
	var violated, total int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			total++
		inner:
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if d.At(i, k)+d.At(k, j) < d.At(i, j)*0.98 {
					violated++
					break inner
				}
			}
		}
	}
	frac := float64(violated) / float64(total)
	if frac > 0.05 {
		t.Fatalf("uninflated topology shows %v violations; routing is broken", frac)
	}
}

func TestSameStubShortPath(t *testing.T) {
	// Hosts sharing a stub must be much closer to each other than to hosts
	// on other continents.
	topo := mustGen(t, Config{Seed: 9, NumHosts: 40, HostsPerStub: 4})
	var same, cross []float64
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			d := topo.RTT(i, j)
			if topo.Hosts[i].Stub == topo.Hosts[j].Stub {
				same = append(same, d)
			} else if topo.Hosts[i].Continent != topo.Hosts[j].Continent {
				cross = append(cross, d)
			}
		}
	}
	if len(same) == 0 || len(cross) == 0 {
		t.Skip("topology draw produced no same-stub or cross-continent pairs")
	}
	meanSame := mean(same)
	meanCross := mean(cross)
	if meanSame*3 > meanCross {
		t.Fatalf("same-stub mean %v should be far below cross-continent mean %v", meanSame, meanCross)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Property: any generated topology yields finite nonnegative one-way
// distances with zero diagonal and positive off-diagonal.
func TestPropGeneratedDistancesWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(seed%23+23)%23
		topo, err := Generate(Config{Seed: seed, NumHosts: n})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := topo.OneWay(i, j)
				if i == j && d != 0 {
					return false
				}
				if i != j && (d <= 0 || math.IsNaN(d) || d > 1e6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the symmetric RTT matrix is exactly the average of the two
// directed distances — the two views must never disagree.
func TestPropDirectedRTTConsistency(t *testing.T) {
	f := func(seed int64) bool {
		n := 4 + int(seed%17+17)%17
		topo, err := Generate(Config{
			Seed: seed, NumHosts: n,
			AsymmetryProb: 0.5, AsymmetryMax: 0.4, HostAsymmetryMax: 3,
		})
		if err != nil {
			return false
		}
		dir := topo.Directed()
		rtt := topo.RTTMatrix()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := (dir.At(i, j) + dir.At(j, i)) / 2
				if math.Abs(rtt.At(i, j)-want) > 1e-9*(1+want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestContinentWeightsRespected(t *testing.T) {
	// With a heavily skewed weight vector, most stubs land on continent 0.
	topo := mustGen(t, Config{
		Seed: 40, NumHosts: 200, HostsPerStub: 1,
		ContinentWeights: []float64{0.9, 0.05, 0.05},
	})
	counts := map[int]int{}
	for _, h := range topo.Hosts {
		counts[h.Continent]++
	}
	if counts[0] < 140 {
		t.Fatalf("continent 0 has %d of 200 hosts, want ~180", counts[0])
	}
}

func TestDisableSentinelsClampToZero(t *testing.T) {
	// Negative knob values are the explicit off switch: withDefaults must
	// clamp them to zero instead of leaving them negative (or, worse,
	// re-applying the defaults the caller is trying to suppress).
	c := Config{
		InflationProb: -1, InflationMax: -1,
		StubInflationProb: -1, StubInflationMax: -1,
		MultihomeProb: -1,
	}.withDefaults()
	for name, v := range map[string]float64{
		"InflationProb":     c.InflationProb,
		"InflationMax":      c.InflationMax,
		"StubInflationProb": c.StubInflationProb,
		"StubInflationMax":  c.StubInflationMax,
		"MultihomeProb":     c.MultihomeProb,
	} {
		if v != 0 {
			t.Errorf("%s = %v after withDefaults, want 0 (disabled)", name, v)
		}
	}
	// The zero value must keep selecting the documented defaults.
	d := Config{}.withDefaults()
	if d.InflationProb != 0.5 || d.InflationMax != 0.8 {
		t.Errorf("zero config inflation = %v/%v, want defaults 0.5/0.8", d.InflationProb, d.InflationMax)
	}
	if d.StubInflationProb != 0.3 || d.StubInflationMax != 0.25 {
		t.Errorf("zero config stub inflation = %v/%v, want defaults 0.3/0.25", d.StubInflationProb, d.StubInflationMax)
	}
	if d.MultihomeProb != 0.25 {
		t.Errorf("zero config MultihomeProb = %v, want default 0.25", d.MultihomeProb)
	}
}

// triangleViolations counts ordered pairs (i,j) for which some detour
// i→k→j is shorter than the direct path by more than a float tolerance.
func triangleViolations(d *mat.Dense, n int) int {
	var violated int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if d.At(i, k)+d.At(k, j) < d.At(i, j)-1e-9 {
					violated++
					break
				}
			}
		}
	}
	return violated
}

func TestDisabledGeneratorExactShortestPaths(t *testing.T) {
	// With every stochastic routing defect switched off via the negative
	// sentinels, distances are pure shortest paths plus positive access
	// links: the matrix must be exactly symmetric and a true metric, with
	// zero triangle-inequality violations (not merely "few").
	for seed := int64(20); seed < 23; seed++ {
		topo := mustGen(t, Config{
			Seed: seed, NumHosts: 50,
			InflationProb: -1, StubInflationProb: -1, MultihomeProb: -1,
		})
		d := topo.Directed()
		n := topo.NumHosts()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.At(i, j) != d.At(j, i) {
					t.Fatalf("seed %d: disabled generator asymmetric at (%d,%d): %v vs %v",
						seed, i, j, d.At(i, j), d.At(j, i))
				}
			}
		}
		if v := triangleViolations(d, n); v != 0 {
			t.Fatalf("seed %d: disabled generator has %d triangle violations, want 0", seed, v)
		}
	}
}

func TestNegativeInflationMaxDoesNotDeflate(t *testing.T) {
	// A negative InflationMax means "off", never a stretch factor below 1:
	// the pre-sentinel code fed it straight into 1 + U(0,1)*Max, deflating
	// routed paths below their shortest path (even below zero).
	topo := mustGen(t, Config{
		Seed: 24, NumHosts: 60,
		InflationProb: 1, InflationMax: -5,
		StubInflationProb: -1, MultihomeProb: -1,
	})
	d := topo.Directed()
	n := topo.NumHosts()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && d.At(i, j) <= 0 {
				t.Fatalf("deflated distance d(%d,%d) = %v", i, j, d.At(i, j))
			}
		}
	}
	if v := triangleViolations(d, n); v != 0 {
		t.Fatalf("negative InflationMax produced %d triangle violations, want 0", v)
	}
}

func TestAsymmetryDirectionBalanced(t *testing.T) {
	// When a transit pair draws asymmetric routing, the slow direction
	// must be a fair coin, not always the low→high transit-index
	// direction. Classify every asymmetric stub pair by whether its slow
	// direction runs toward the higher-index transit; both orientations
	// must appear in force across seeds.
	var lowHigh, highLow int
	for seed := int64(30); seed < 36; seed++ {
		topo := mustGen(t, Config{
			Seed: seed, NumHosts: 80, HostsPerStub: 1,
			InflationProb: 1, InflationMax: 0.5,
			AsymmetryProb: 1, AsymmetryMax: 0.5,
			StubInflationProb: -1, MultihomeProb: -1,
		})
		for a := 0; a < topo.numStubs; a++ {
			for b := a + 1; b < topo.numStubs; b++ {
				ta, tb := topo.stubHome[a], topo.stubHome[b]
				if ta == tb {
					continue
				}
				fwd, rev := topo.stubDist(a, b), topo.stubDist(b, a)
				if fwd == rev {
					continue
				}
				if (fwd > rev) == (ta < tb) {
					lowHigh++
				} else {
					highLow++
				}
			}
		}
	}
	total := lowHigh + highLow
	if total == 0 {
		t.Fatal("asymmetric config produced no asymmetric stub pairs")
	}
	if float64(lowHigh) < 0.2*float64(total) || float64(highLow) < 0.2*float64(total) {
		t.Fatalf("asymmetry direction unbalanced: %d slow toward higher transit index, %d toward lower (total %d)",
			lowHigh, highLow, total)
	}
	// The public Directed() surface must show both orientations too.
	d := mustGen(t, Config{
		Seed: 30, NumHosts: 80, HostsPerStub: 1,
		InflationProb: 1, InflationMax: 0.5,
		AsymmetryProb: 1, AsymmetryMax: 0.5,
		StubInflationProb: -1, MultihomeProb: -1,
	}).Directed()
	var fwdSlow, revSlow bool
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			if d.At(i, j) > d.At(j, i) {
				fwdSlow = true
			} else if d.At(j, i) > d.At(i, j) {
				revSlow = true
			}
		}
	}
	if !fwdSlow || !revSlow {
		t.Fatalf("Directed() shows only one asymmetry orientation (i→j slow: %v, j→i slow: %v)", fwdSlow, revSlow)
	}
}

func TestHostAsymmetryProducesUpDownGap(t *testing.T) {
	topo := mustGen(t, Config{Seed: 41, NumHosts: 60, HostAsymmetryMax: 8})
	var differ int
	for _, h := range topo.Hosts {
		if math.Abs(h.Up-h.Down) > 0.5 {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("HostAsymmetryMax should produce differing up/down latencies")
	}
}

// referenceStubDist is Generate's stub-pair fill before the packed
// triangles, kept as the oracle: the routing pass copies row s of a dense
// numStubs² matrix and the level-2 pass writes both d[a,b] and d[b,a], with
// the same random draws as Generate.
func referenceStubDist(cfg Config) (*mat.Dense, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g, stubContinent, stubHome, err := routers(cfg, rng)
	if err != nil {
		return nil, err
	}
	numStubs := len(stubContinent)
	numTransit := len(g.adj) - numStubs

	stubDist := mat.NewDense(numStubs, numStubs)
	sp := newPathSearch(g)
	for s := 0; s < numStubs; s++ {
		dist := sp.from(numTransit + s)
		copy(stubDist.Row(s)[s+1:], dist[numTransit+s+1:])
	}

	tInf := mat.NewDense(numTransit, numTransit)
	tInf.Fill(1)
	for a := 0; a < numTransit; a++ {
		for b := a + 1; b < numTransit; b++ {
			if rng.Float64() < cfg.InflationProb {
				f := 1 + rng.Float64()*cfg.InflationMax
				fwd, rev := f, f
				if cfg.AsymmetryProb > 0 && rng.Float64() < cfg.AsymmetryProb {
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
	d, inf := stubDist.Data(), tInf.Data()
	for a := 0; a < numStubs; a++ {
		ta := stubHome[a]
		for b := a + 1; b < numStubs; b++ {
			local := 1.0
			if rng.Float64() < cfg.StubInflationProb {
				local = 1 + rng.Float64()*cfg.StubInflationMax
			}
			tb := stubHome[b]
			base := d[a*numStubs+b]
			d[a*numStubs+b] = base * inf[ta*numTransit+tb] * local
			d[b*numStubs+a] = base * inf[tb*numTransit+ta] * local
		}
	}
	return stubDist, nil
}

// TestPackedStubDistMatchesDense holds the packed triangles to the dense
// fill they replaced, every ordered stub pair bit for bit: the routing
// shapes, a 1-stub topology (an empty triangle), a 2-stub one, and one
// whose every inflated transit pair is asymmetric, so rev is its own slice.
func TestPackedStubDistMatchesDense(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= routingSeeds; seed++ {
		cfgs = append(cfgs, generatorConfigs(seed)...)
	}
	cfgs = append(cfgs,
		Config{Seed: 1, NumHosts: 5, HostsPerStub: 5},
		Config{Seed: 2, NumHosts: 2, HostsPerStub: 1},
		Config{Seed: 3, NumHosts: 80, HostsPerStub: 1, InflationProb: 1, AsymmetryProb: 1, AsymmetryMax: 0.5},
	)
	for _, cfg := range cfgs {
		want, err := referenceStubDist(cfg)
		if err != nil {
			t.Fatal(err)
		}
		topo := mustGen(t, cfg)
		if topo.numStubs != want.Rows() {
			t.Fatalf("%+v: %d stubs, reference %d", cfg, topo.numStubs, want.Rows())
		}
		for a := 0; a < topo.numStubs; a++ {
			for b := 0; b < topo.numStubs; b++ {
				if got := topo.stubDist(a, b); math.Float64bits(got) != math.Float64bits(want.At(a, b)) {
					t.Fatalf("%+v: stubs %d → %d read %v, reference %v", cfg, a, b, got, want.At(a, b))
				}
			}
		}
	}
}
