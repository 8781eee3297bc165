package peer

import (
	"github.com/ides-go/ides/internal/telemetry"
)

// peerMetrics bundles the gossip instrument families. telemetry.Registry
// hands out usable instruments even when nil, so every method here is
// safe without a configured registry.
type peerMetrics struct {
	rounds    *telemetry.Counter
	exchanges *telemetry.CounterVec
	failures  *telemetry.Counter
	churnC    *telemetry.Counter
	stepMag   *telemetry.Gauge
}

func newPeerMetrics(reg *telemetry.Registry, p *Peer) *peerMetrics {
	m := &peerMetrics{
		rounds: reg.Counter("ides_gossip_rounds_total",
			"Gossip rounds started by this peer."),
		exchanges: reg.CounterVec("ides_gossip_exchanges_total",
			"Coordinate exchanges completed, by direction (out = initiated, in = served).", "dir"),
		failures: reg.Counter("ides_gossip_failures_total",
			"Gossip rounds that failed (ping, transport, or decode errors)."),
		churnC: reg.Counter("ides_gossip_neighbor_churn_total",
			"Neighbors dropped from the table after failed exchanges."),
		stepMag: reg.Gauge("ides_gossip_step_magnitude",
			"Relative coordinate displacement of the most recent applied update."),
	}
	reg.GaugeFunc("ides_gossip_neighbors",
		"Current neighbor-table size.", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.table.entries))
		})
	reg.GaugeFunc("ides_gossip_drift",
		"Relative L2 displacement of the coordinate rows from their random initialization.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.driftLocked()
		})
	return m
}

func (m *peerMetrics) round()              { m.rounds.Inc() }
func (m *peerMetrics) exchange(dir string) { m.exchanges.With(dir).Inc() }
func (m *peerMetrics) failure()            { m.failures.Inc() }
func (m *peerMetrics) churn()              { m.churnC.Inc() }
func (m *peerMetrics) step(v float64)      { m.stepMag.Set(v) }
