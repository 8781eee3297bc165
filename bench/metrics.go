package main

// metricDef is one named metric: what BENCHMARK.json declares and what
// -compare judges by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the base
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports every one. Bounds are what the measured seed-to-seed spread on
// the reference box supports (see README "Spread"), never above 0.25.
//
// fail_ratio is not here: it is 0 on a healthy run, and a bound that is
// a share of the parent's median cannot be put on 0. Failures are
// counted in every result's attempted/failed and fail the run. Nor are
// p99 latency and peak RSS: on the reference box their run-to-run spread
// (19-21 % and 15 % of the median) is too close to the largest bound a
// metric may have, so they are per-layer (op.p99_us,
// runtime.peak_rss_mb) and printed, unbounded, by every untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "median_rel_err", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "p90_rel_err", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics, named <module>.<metric>. A
// traced run reports every one on every workload; a metric whose layer
// the workload does not touch reads 0.
var perLayer = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "op.p99_us", Unit: "us", Better: "lower"},

	{Name: "wire.point_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_codec_us", Unit: "us", Better: "lower"},
	{Name: "wire.gossip_codec_ns", Unit: "ns", Better: "lower"},

	{Name: "transport.ping_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.lockstep_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.frames_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "transport.dial_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.dials", Unit: "count", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "transport.discards", Unit: "count", Better: "lower"},
	{Name: "transport.arena_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "server.handler_mean_us.QueryDist", Unit: "us", Better: "lower"},
	{Name: "server.handler_mean_us.QueryBatch", Unit: "us", Better: "lower"},
	{Name: "server.handler_mean_us.QueryKNN", Unit: "us", Better: "lower"},
	{Name: "server.handler_mean_us.RegisterHost", Unit: "us", Better: "lower"},
	{Name: "server.handler_mean_us.ReportRTT", Unit: "us", Better: "lower"},
	{Name: "server.handler_mean_us.GetModel", Unit: "us", Better: "lower"},
	{Name: "server.handler_share", Unit: "ratio", Better: "lower"},
	{Name: "server.coalesced_per_frame", Unit: "ratio", Better: "higher"},
	{Name: "server.overload_rejects", Unit: "count", Better: "lower"},
	{Name: "server.register_hosts_per_s", Unit: "1/s", Better: "higher"},

	{Name: "query.estimate_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "query.estimate_batch_us", Unit: "us", Better: "lower"},
	{Name: "query.knn_indexed_p50_us", Unit: "us", Better: "lower"},
	{Name: "query.knn_indexed_p99_us", Unit: "us", Better: "lower"},
	{Name: "query.knn_exact_p50_us", Unit: "us", Better: "lower"},
	{Name: "query.knn_index_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.knn_index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "query.directory_put_ns", Unit: "ns", Better: "lower"},
	{Name: "query.directory_get_ns", Unit: "ns", Better: "lower"},
	{Name: "query.knn_recall", Unit: "ratio", Better: "higher"},
	{Name: "knnindex.search_p50_us", Unit: "us", Better: "lower"},
	{Name: "knnindex.build_ms", Unit: "ms", Better: "lower"},

	{Name: "core.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_host_us", Unit: "us", Better: "lower"},
	{Name: "core.place_all_hosts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "solve.batch_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "solve.peer_step_ns", Unit: "ns", Better: "lower"},
	{Name: "lifecycle.refit_ms", Unit: "ms", Better: "lower"},
	{Name: "lifecycle.refits", Unit: "count", Better: "higher"},
	{Name: "lifecycle.recovery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lifecycle.stale_reads", Unit: "count", Better: "lower"},

	{Name: "peer.exchange_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "peer.estimate_local_ns", Unit: "ns", Better: "lower"},
	{Name: "peer.failed_rounds", Unit: "count", Better: "lower"},
	{Name: "peer.neighbor_churn", Unit: "count", Better: "lower"},
	{Name: "simnet.dial_p50_us", Unit: "us", Better: "lower"},
	{Name: "simnet.ping_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "harness.boot_ms_per_peer", Unit: "ms", Better: "lower"},
	{Name: "topology.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.calibration_ms", Unit: "ms", Better: "lower"},

	{Name: "class.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "class.batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "class.knn_p50_us", Unit: "us", Better: "lower"},
	{Name: "class.knn_p99_us", Unit: "us", Better: "lower"},

	{Name: "span.op_self_share", Unit: "ratio", Better: "lower"},
	{Name: "span.wire_encode_share", Unit: "ratio", Better: "lower"},
	{Name: "span.transport_call_share", Unit: "ratio", Better: "lower"},
	{Name: "span.wire_decode_share", Unit: "ratio", Better: "lower"},
	{Name: "span.check_share", Unit: "ratio", Better: "lower"},
	{Name: "span.lifecycle_recover_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// workloadDef names a workload and says why it exists (BENCHMARK.json's
// "why", printed in the run header too).
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"point-serial", "10k hosts, 1 caller, QueryDist: one small message in flight, so per-message wire+transport+frontend cost is the latency; bypasses KD-tree, matvec, lifecycle"},
	{"bulk-pipelined", "100k hosts, 8 callers on 2 mux conns, 3:1 QueryBatch-256:QueryKNN-16: the query engine does most of the work, write coalescing active; bypasses the single-in-flight path"},
	{"refit-churn", "8192 hosts, 1 reader (3:1 QueryDist:QueryKNN) beside jittered reports forcing a refit, full re-registration and index rebuild every second: writes beside reads"},
	{"gossip-fleet", "2000-peer landmark-free DMFSGD fleet over simnet, op = one Peer.GossipRound: peer loop, PeerStep, gossip codec, simnet; uses none of the server query path"},
}

// singleInFlight reports whether a workload has one operation in flight
// at a time; those run pinned to one CPU (see pinToOneCPU).
func singleInFlight(workload string) bool { return workload != "bulk-pipelined" }
