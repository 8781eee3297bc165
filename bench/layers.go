package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/ides-go/ides/internal/harness"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
)

// Per-layer metrics of a traced run. Every traced run measures every
// layer: the workload's own layers from its traced window and on its own
// deployment or fleet, the layers it never touches on a small probe
// deployment (probeHosts hosts) or probe fleet (probePeers peers), so
// that no per-layer figure is a placeholder. The README says which is
// which per workload.
const (
	probeHosts = 4096 // the engine's k-NN index threshold: the index builds
	probePeers = 64
	// classProbeOps is how many serial requests measure a request class
	// the workload's mix does not contain.
	classProbeOps = 256
)

// calibrate times a fixed arithmetic loop (about 15 ms on the reference
// box). It measures the machine, not the program: on a shared host the
// same binary slowed by 40 % for ten minutes at a stretch, and this is how
// a reader tells such a spell from a regression (README "Spread").
func calibrate() time.Duration {
	runtime.GC() // so the program's own background collection is not what gets timed
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 10_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibrationSink = x
	return time.Since(t)
}

var calibrationSink uint64 // keeps the loop from being optimised away

// usage is process CPU time and allocator state at one instant.
type usage struct {
	cpu time.Duration
	mem runtime.MemStats
}

// takeUsage reads rusage and MemStats (traced phases only: ReadMemStats
// stops the world).
func takeUsage(on bool) usage {
	var u usage
	if !on {
		return u
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// windowLayerMetrics derives the per-layer metrics that come from the
// traced window itself: failures, runtime cost per op, per-class
// latency, and the span self-time split.
func windowLayerMetrics(res *result, w *windowResult, before, after usage) {
	m := res.Metrics
	for _, def := range perLayer {
		m[def.Name] = 0 // every traced run reports every per-layer metric
	}
	all := w.all()
	ops := float64(max(w.ok(), 1))
	m["fail_ratio"] = float64(w.failed) / float64(max(w.attempted, 1))
	m["runtime.cpu_us_per_op"] = float64(after.cpu-before.cpu) / 1e3 / ops
	m["runtime.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	m["runtime.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.peak_rss_mb"] = procStatusMB("VmHWM:")
	m["runtime.calibration_ms"] = float64(calibrate()) / 1e6
	m["op.p99_us"] = summarize(all).p99Us
	if w.knnWant > 0 {
		m["query.knn_recall"] = float64(w.knnGot) / float64(w.knnWant)
	}
	for k, s := range w.samples[:kindGossip] {
		if len(s) == 0 {
			continue
		}
		lat := summarize(s)
		m["class."+kindNames[k]+"_p50_us"] = lat.p50Us
		if reqKind(k) == kindKNN {
			m["class.knn_p99_us"] = lat.p99Us
		}
	}

	// Span shares are taken over the sampled ops. Ops that ran a
	// recovery are all recorded (forceOp), so they would be 16x
	// over-represented: they are left out here, and the recovery share
	// is computed from exact totals instead.
	var opNs, recoverNs float64
	totals, selfs := map[string]int64{}, map[string]int64{}
	recorded := 0
	for _, t := range w.tracers {
		kept := withoutRecoveries(t.spans)
		for _, s := range kept {
			if s.Name == spOp {
				recorded++
			}
		}
		total, self := selfTimes(kept)
		for name, ns := range total {
			totals[name] += ns
			selfs[name] += self[name]
		}
		for _, s := range t.spans {
			if s.Name == spRecover {
				recoverNs += float64(s.EndNs - s.StartNs)
			}
		}
	}
	for _, s := range all {
		opNs += float64(s.latNs)
	}
	if op := float64(totals[spOp]); op > 0 {
		m["span.op_self_share"] = float64(selfs[spOp]) / op
		m["span.wire_encode_share"] = float64(selfs[spEncode]) / op
		m["span.transport_call_share"] = float64(selfs[spCall]) / op
		m["span.wire_decode_share"] = float64(selfs[spDecode]) / op
		m["span.check_share"] = float64(selfs[spCheck]) / op
		res.notef("span shares: self time over the summed op span of %d recorded ops (every %dth, recovering ops excluded)", recorded, traceStride)
	}
	if opNs > 0 {
		m["span.lifecycle_recover_share"] = recoverNs / opNs
	}
}

// withoutRecoveries drops every span of an op that ran a recovery,
// re-pointing parents at the kept spans' new positions.
func withoutRecoveries(spans []span) []span {
	recovered := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == spRecover {
			recovered[s.Op] = true
		}
	}
	if len(recovered) == 0 {
		return spans
	}
	newIndex := make([]int32, len(spans))
	var out []span
	for i, s := range spans {
		if recovered[s.Op] {
			newIndex[i] = -1
			continue
		}
		newIndex[i] = int32(len(out))
		if s.Parent >= 0 {
			s.Parent = newIndex[s.Parent]
		}
		out = append(out, s)
	}
	return out
}

// layerSnapshot is the state of the stats surfaces the layers already
// export — the run's telemetry registry, the lifecycle counters — and
// the process's resource usage, at one edge of the timed window.
type layerSnapshot struct {
	usage
	exp  map[string]float64
	fits uint64
	mux  transport.MuxStats
}

func takeSnapshot(d *deployment, on bool) layerSnapshot {
	if !on {
		return layerSnapshot{}
	}
	return layerSnapshot{usage: takeUsage(true), exp: d.cfg.metrics.Export(), fits: d.srv.LifecycleStats().Fits, mux: d.pool.MuxStats()}
}

// serverLayerMetrics turns the two snapshots and the pool's counters
// into per-layer metrics. Registry and mux figures are window deltas,
// except the handler means of message types the window did not send.
func serverLayerMetrics(d *deployment, before, after layerSnapshot, m map[string]float64) {
	final := d.cfg.metrics.Export()
	exp := make(map[string]float64, len(after.exp))
	for name, v := range after.exp {
		exp[name] = v - before.exp[name]
	}
	var handlerSeconds float64
	for _, typ := range []string{"QueryDist", "QueryBatch", "QueryKNN", "RegisterHost", "ReportRTT", "GetModel"} {
		label := fmt.Sprintf("{type=%q}", typ)
		sum, n := exp["ides_server_request_seconds_sum"+label], exp["ides_server_request_seconds_count"+label]
		if n == 0 { // not sent inside the window: set-up's, or the class probe's
			sum, n = final["ides_server_request_seconds_sum"+label], final["ides_server_request_seconds_count"+label]
		}
		if n > 0 {
			m["server.handler_mean_us."+typ] = sum / n * 1e6
		}
		if strings.HasPrefix(typ, "Query") {
			handlerSeconds += exp["ides_server_request_seconds_sum"+label]
		}
	}
	// Share of the process's busy (CPU) time in the window that went to
	// the server's query handlers: the query engine's weight in the
	// shared resource, generator and transport being the rest.
	if cpu := (after.cpu - before.cpu).Seconds(); cpu > 0 {
		m["server.handler_share"] = handlerSeconds / cpu
	}
	var requests float64
	for name, v := range exp {
		if strings.HasPrefix(name, "ides_server_requests_total") {
			requests += v
		}
	}
	if requests > 0 {
		m["server.coalesced_per_frame"] = exp["ides_mux_frames_coalesced_total"] / requests
	}
	m["server.overload_rejects"] = exp["ides_mux_overload_rejects_total"]
	m["server.register_hosts_per_s"] = float64(d.cfg.hosts) / d.stages.register.Seconds()
	if hits, fb := exp["ides_query_knn_index_hits_total"], exp["ides_query_knn_index_fallbacks_total"]; hits+fb > 0 {
		m["query.knn_index_hit_ratio"] = hits / (hits + fb)
	}

	ps := d.pool.Stats()
	m["transport.dials"] = float64(ps.Dials)
	m["transport.retries"] = float64(ps.Retries)
	m["transport.discards"] = float64(ps.Discards)
	if flushes := after.mux.Flushes - before.mux.Flushes; flushes > 0 {
		m["transport.frames_per_flush"] = float64(after.mux.Frames-before.mux.Frames) / float64(flushes)
	}
	if as := d.pool.ArenaStats(); as.Hits+as.Misses > 0 {
		m["transport.arena_hit_ratio"] = float64(as.Hits) / float64(as.Hits+as.Misses)
	}
	m["lifecycle.refits"] = float64(after.fits - before.fits)
}

// servingLayerMetrics fills in every serving-side layer metric for
// deployment d after a traced window w (empty for a probe deployment):
// the registry deltas, then probes on the now idle server.
func servingLayerMetrics(ctx context.Context, pr prober, d *deployment, w *windowResult, before, after layerSnapshot, generate time.Duration) error {
	m := pr.m
	m["topology.generate_ms"] = float64(generate) / 1e6
	if m["lifecycle.refit_ms"] == 0 {
		m["lifecycle.refit_ms"] = float64(d.stages.refit) / 1e6
	}
	// Request classes outside the mix: a short serial stream of each.
	for k := reqKind(0); k < kindGossip; k++ {
		if len(w.samples[k]) > 0 {
			continue
		}
		c := &caller{id: -1, d: d}
		gen := newReqGen(d.cfg.seed, int(k), phaseAccuracy, d.cfg.hosts, mix{k, k, k, k})
		start := time.Now()
		for i := 0; i < max(classProbeOps/pr.div, 16); i++ {
			c.do(ctx, gen.next(), start)
		}
		c.checkPending()
		if c.failed > 0 || c.knnGot != c.knnWant {
			return fmt.Errorf("%s class probe: %d failed, k-NN %d/%d: %v", kindNames[k], c.failed, c.knnGot, c.knnWant, c.failures)
		}
		lat := summarize(c.samples[k])
		m["class."+kindNames[k]+"_p50_us"] = lat.p50Us
		if k == kindKNN {
			m["class.knn_p99_us"] = lat.p99Us
		}
	}
	if m["lifecycle.recovery_p50_ms"] == 0 {
		// No refit moved the epoch here: time one full re-placement
		// (re-fetch, re-solve, re-register), the work a recovery does.
		t := time.Now()
		if err := d.placeOnce(ctx, nil); err != nil {
			return err
		}
		m["lifecycle.recovery_p50_ms"] = float64(time.Since(t)) / 1e6
	}
	serverLayerMetrics(d, before, after, m)
	if err := pr.transport(ctx, d); err != nil {
		return err
	}
	pr.query(d, w.record)
	return pr.model(d)
}

// probeDeployment stands up a probeHosts-host deployment, with its own
// registry, and measures the serving layers on it.
func probeDeployment(ctx context.Context, pr prober, rc runConfig) error {
	hosts := rc.scale(probeHosts, 256)
	t := time.Now()
	topo, err := generateDataset(hosts)
	if err != nil {
		return err
	}
	generate := time.Since(t)
	d, err := deploy(ctx, deployConfig{hosts: hosts, seed: rc.seed, topo: topo, metrics: telemetry.NewRegistry()})
	if err != nil {
		return err
	}
	defer d.close()
	return servingLayerMetrics(ctx, pr, d, &windowResult{}, layerSnapshot{}, layerSnapshot{}, generate)
}

// gossipLayerMetrics fills in the peer/simnet/harness layer metrics on
// fleet g; with g nil it boots a probePeers-peer fleet, warms it up, and
// measures there.
func gossipLayerMetrics(ctx context.Context, pr prober, g *harness.GossipCluster, boot time.Duration) error {
	if g == nil {
		var err error
		if g, boot, err = bootGossip(gossipSpec{peers: probePeers}, nil); err != nil {
			return err
		}
		defer g.Close()
		for r := 0; r < gossipWarmupRounds; r++ {
			if _, err := g.GossipRound(ctx); err != nil {
				return err
			}
		}
	}
	pr.m["harness.boot_ms_per_peer"] = float64(boot) / 1e6 / float64(g.NumPeers())
	pr.codecs()
	return pr.gossip(ctx, g)
}
