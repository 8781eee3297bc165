// Package measure simulates the measurement processes that produced the
// paper's datasets: periodic pings whose minimum over many samples
// approximates the propagation RTT (NLANR, PL-RTT), one-shot probes (GNP),
// and King-style third-party estimation between DNS servers (P2PSim [8]).
// It also injects sample loss so that datasets can contain missing entries,
// which exercises the masked-NMF path (§4.2).
package measure

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/topology"
)

// Config describes the noise environment of a measurement campaign.
type Config struct {
	// Seed makes the campaign reproducible.
	Seed int64
	// JitterMean is the mean of the exponentially distributed queueing
	// delay added to each ping sample, in ms. Default 2.
	JitterMean float64
	// LossProb is the per-sample probability that a ping is lost. Default 0.
	LossProb float64
}

// spikeProb is the per-sample probability of a congestion spike, which
// adds up to spikeMax extra ms.
const spikeProb, spikeMax = 0.02, 80

func (c Config) withDefaults() Config {
	if c.JitterMean == 0 {
		c.JitterMean = 2
	}
	return c
}

// Pinger samples round-trip times over a topology with realistic noise.
// A Pinger is safe for concurrent use: the underlying *rand.Rand is not,
// so a mutex serializes every draw. Single-goroutine campaigns see the
// exact same sample sequence as before; concurrent callers interleave
// draws nondeterministically (use one seeded Pinger per goroutine when
// per-goroutine reproducibility matters).
type Pinger struct {
	topo *topology.Topology
	cfg  Config

	mu  sync.Mutex // guards rng: rand.Rand races under concurrent use
	rng *rand.Rand
}

// NewPinger returns a Pinger over t.
func NewPinger(t *topology.Topology, cfg Config) *Pinger {
	cfg = cfg.withDefaults()
	return &Pinger{topo: t, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Sample sends one simulated ping from host i to host j and reports the
// observed RTT. ok is false when the sample was lost.
func (p *Pinger) Sample(i, j int) (rtt float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sampleLocked(i, j)
}

func (p *Pinger) sampleLocked(i, j int) (rtt float64, ok bool) {
	if p.cfg.LossProb > 0 && p.rng.Float64() < p.cfg.LossProb {
		return 0, false
	}
	base := p.topo.RTT(i, j)
	jitter := p.rng.ExpFloat64() * p.cfg.JitterMean
	if p.rng.Float64() < spikeProb {
		jitter += p.rng.Float64() * spikeMax
	}
	return base + jitter, true
}

// MinRTT pings k times and returns the minimum observed RTT, emulating how
// the NLANR and PlanetLab datasets were built (minimum of periodic pings
// over a day). ok is false if every sample was lost.
func (p *Pinger) MinRTT(i, j, k int) (rtt float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.minRTTLocked(i, j, k)
}

func (p *Pinger) minRTTLocked(i, j, k int) (rtt float64, ok bool) {
	if k <= 0 {
		panic(fmt.Sprintf("measure: MinRTT sample count %d must be positive", k))
	}
	best := math.Inf(1)
	for s := 0; s < k; s++ {
		if v, sampled := p.sampleLocked(i, j); sampled && v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// King estimates the RTT between hosts i and j the way the King method [8]
// does — via recursive DNS queries through nearby name servers. The
// estimate carries multiplicative error (the name servers are near, not at,
// the hosts) plus a small additive processing delay.
func (p *Pinger) King(i, j int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kingLocked(i, j)
}

func (p *Pinger) kingLocked(i, j int) float64 {
	base := p.topo.RTT(i, j)
	// Multiplicative error: normal around 1 with 6% sd, biased slightly
	// high, truncated to keep estimates positive. Gross misattribution
	// errors are not modeled: the published P2PSim matrix was filtered
	// from ~1740 to 1143 nodes precisely to drop such pairs.
	mult := 1.03 + 0.06*p.rng.NormFloat64()
	if mult < 0.7 {
		mult = 0.7
	}
	return base*mult + p.rng.ExpFloat64()*0.5
}

// Campaign holds the output of a full measurement sweep: the distance
// matrix and a 0/1 mask of which entries were observed. The diagonal is
// always zero/observed.
type Campaign struct {
	D    *mat.Dense
	Mask *mat.Dense
}

// MatrixMode selects how each pair is measured during a campaign.
type MatrixMode int

const (
	// ModeMinRTT takes the minimum of many pings per pair.
	ModeMinRTT MatrixMode = iota
	// ModeSinglePing takes one jittered sample per pair.
	ModeSinglePing
	// ModeKing uses King third-party estimation per pair.
	ModeKing
)

// MeasureMatrix measures the full symmetric matrix over the listed hosts.
// samples is the per-pair ping budget for ModeMinRTT. pairLossProb drops a
// whole pair's measurement (both directions) to produce missing entries.
func (p *Pinger) MeasureMatrix(hosts []int, mode MatrixMode, samples int, pairLossProb float64) *Campaign {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(hosts)
	d := mat.NewDense(n, n)
	mask := mat.NewDense(n, n)
	mask.Fill(1)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if pairLossProb > 0 && p.rng.Float64() < pairLossProb {
				mask.Set(a, b, 0)
				mask.Set(b, a, 0)
				continue
			}
			var v float64
			var ok bool
			switch mode {
			case ModeMinRTT:
				v, ok = p.minRTTLocked(hosts[a], hosts[b], samples)
			case ModeSinglePing:
				v, ok = p.sampleLocked(hosts[a], hosts[b])
			case ModeKing:
				v, ok = p.kingLocked(hosts[a], hosts[b]), true
			default:
				panic(fmt.Sprintf("measure: unknown mode %d", mode))
			}
			if !ok {
				mask.Set(a, b, 0)
				mask.Set(b, a, 0)
				continue
			}
			d.Set(a, b, v)
			d.Set(b, a, v)
		}
	}
	return &Campaign{D: d, Mask: mask}
}

// MeasureDirected measures the full directed matrix rows x cols, where the
// distance from rows[a] to cols[b] is the forward-path RTT (asymmetric when
// the topology is). Used to build the AGNP-style rectangular dataset.
func (p *Pinger) MeasureDirected(rows, cols []int, samples int) *Campaign {
	p.mu.Lock()
	defer p.mu.Unlock()
	nr, nc := len(rows), len(cols)
	d := mat.NewDense(nr, nc)
	mask := mat.NewDense(nr, nc)
	mask.Fill(1)
	for a := 0; a < nr; a++ {
		for b := 0; b < nc; b++ {
			if rows[a] == cols[b] {
				continue
			}
			base := 2 * p.topo.OneWay(rows[a], cols[b])
			best := math.Inf(1)
			lost := true
			for s := 0; s < samples; s++ {
				if p.cfg.LossProb > 0 && p.rng.Float64() < p.cfg.LossProb {
					continue
				}
				v := base + p.rng.ExpFloat64()*p.cfg.JitterMean
				if v < best {
					best = v
				}
				lost = false
			}
			if lost {
				mask.Set(a, b, 0)
				continue
			}
			d.Set(a, b, best)
		}
	}
	return &Campaign{D: d, Mask: mask}
}
