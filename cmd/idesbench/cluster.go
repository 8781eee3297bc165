package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// clusterResult is the JSON shape written to BENCH_cluster.json: the
// replicated serving tier under query load, leader kill included.
type clusterResult struct {
	Workload  string `json:"workload"`
	Hosts     int    `json:"hosts"`
	Dim       int    `json:"dim"`
	Followers int    `json:"followers"`

	// Epoch bookkeeping: the model epoch the tier served before the
	// kill, and what each follower reported while the leader was dead —
	// the staleness gate requires them identical (followers keep serving
	// the last replicated snapshot, nothing newer, nothing lost).
	PreKillEpoch   uint64   `json:"pre_kill_epoch"`
	FollowerEpochs []uint64 `json:"follower_epochs_during_kill"`

	// PointSingle is the baseline: point queries straight at the leader
	// over one pooled connection (bench/'s point-serial shape).
	// PointFollower is the same stream against a follower replica;
	// FollowerP50Ratio compares the two p50s, for the report only.
	PointSingle      stats.OpSummary `json:"point_query_single"`
	PointFollower    stats.OpSummary `json:"point_query_follower"`
	FollowerP50Ratio float64         `json:"follower_p50_ratio"`

	// PointCluster is the failover run: the same query stream through a
	// ClusterPool with the leader killed halfway. ReadErrors counts
	// queries that surfaced an error to the caller (gate: zero) and
	// Failovers how many were transparently replayed on a replica.
	PointCluster stats.OpSummary `json:"point_query_cluster"`
	KillAtOp     int             `json:"kill_at_op"`
	ReadErrors   int             `json:"read_errors"`
	Failovers    int64           `json:"failovers"`

	// ServerMetrics is the final scrape of the leader's registry,
	// replication families included.
	ServerMetrics map[string]float64 `json:"server_metrics"`
}

// runCluster is the replicated-tier workload: one leader and two
// followers over loopback TCP, a registered host population replicated
// to every endpoint, and a point-query stream that keeps running while
// the leader is killed. Gates (non-zero exit on violation):
//
//   - zero read errors across the kill — every query either answered
//     by the endpoint it hit or transparently replayed on a replica;
//   - at least one failover, so the kill exercised the replay path;
//   - followers serve exactly the pre-kill epoch during the outage.
//
// The follower/single-server p50 ratio is printed and recorded, not
// gated: it is a property of the machine (0.43–1.55x across twelve runs
// of two builds on a 2-vCPU box). Writes BENCH_cluster.json.
func runCluster(scale experiments.Scale, seed int64) error {
	numHosts, pointOps := 2_000, 2_000
	if scale == experiments.Full {
		numHosts, pointOps = 10_000, 10_000
	}
	// The fitted rank clamps to the landmark count, so keep landmarks ≥ dim
	// or host registrations bounce on a dimension mismatch.
	const (
		dim          = 8
		numFollowers = 2
		numLandmarks = 8
	)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	// Leader with a real fitted model: synthetic landmark RTTs reported
	// in-process, one refit, so replication carries a non-zero epoch and
	// the staleness gate means something.
	reg := telemetry.NewRegistry()
	lms := make([]string, numLandmarks)
	for i := range lms {
		lms[i] = fmt.Sprintf("lm-%d", i)
	}
	leader, err := server.New(server.Config{Landmarks: lms, Dim: dim, Seed: seed, Metrics: reg})
	if err != nil {
		return err
	}
	defer leader.Close()
	leaderAddr, killLeader, err := serveLoopback(leader)
	if err != nil {
		return err
	}
	defer killLeader()
	pool, err := newLoopbackPool(reg)
	if err != nil {
		return err
	}
	defer pool.Close()

	// Seed the model: every landmark reports a deterministic RTT row,
	// then one synchronous refit publishes epoch 1.
	var buf []byte
	for i, from := range lms {
		rep := &wire.ReportRTT{From: from}
		for j, to := range lms {
			if i == j {
				continue
			}
			rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: 20 + 10*float64(i+j) + rng.Float64()})
		}
		buf = rep.Encode(buf[:0])
		if typ, _, err := pool.Call(ctx, leaderAddr, wire.TypeReportRTT, buf); err != nil || typ != wire.TypeAck {
			return fmt.Errorf("report %s: %v %v", from, typ, err)
		}
	}
	if _, err := leader.Refit(ctx); err != nil {
		return err
	}
	if err := leader.Quiesce(ctx); err != nil {
		return err
	}
	epoch := leader.Epoch()

	// Followers subscribe and mirror the snapshot.
	followers := make([]*server.Server, numFollowers)
	followerAddrs := make([]string, numFollowers)
	for i := range followers {
		f, err := server.New(server.Config{
			Role:       server.RoleFollower,
			LeaderAddr: leaderAddr,
			FollowerID: fmt.Sprintf("bench-follower-%d", i),
			Dim:        dim,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		faddr, stop, err := serveLoopback(f)
		if err != nil {
			return err
		}
		defer stop()
		followers[i] = f
		followerAddrs[i] = faddr
		wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
		err = f.WaitForEpoch(wctx, epoch)
		wcancel()
		if err != nil {
			return fmt.Errorf("follower %d never synced epoch %d: %w", i, epoch, err)
		}
	}

	// Host population, registered at the served epoch and replicated out.
	addrs := make([]string, numHosts)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%06d", i)
		out := make([]float64, dim)
		in := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = rng.Float64() * 10
			in[d] = rng.Float64() * 10
		}
		r := &wire.RegisterHost{Addr: addrs[i], Out: out, In: in, Epoch: epoch}
		buf = r.Encode(buf[:0])
		typ, _, err := pool.Call(ctx, leaderAddr, wire.TypeRegisterHost, buf)
		if err != nil || typ != wire.TypeAck {
			return fmt.Errorf("register %s: %v %v", addrs[i], typ, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, f := range followers {
		for f.NumHosts() < numHosts {
			if time.Now().After(deadline) {
				return fmt.Errorf("follower directory stuck at %d/%d hosts", f.NumHosts(), numHosts)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// runPoint replays the identical query stream against one endpoint
	// through a caller function.
	type caller func(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error)
	runPoint := func(call caller, seed int64) (stats.OpSummary, error) {
		rng := rand.New(rand.NewSource(seed))
		lat := make([]time.Duration, pointOps)
		start := time.Now()
		for i := 0; i < pointOps; i++ {
			q := &wire.QueryDist{From: addrs[rng.Intn(numHosts)], To: addrs[rng.Intn(numHosts)]}
			buf = q.Encode(buf[:0])
			t0 := time.Now()
			typ, payload, err := call(wire.TypeQueryDist, buf)
			lat[i] = time.Since(t0)
			if err != nil || typ != wire.TypeDistance {
				return stats.OpSummary{}, fmt.Errorf("QueryDist %d: %v %v", i, typ, err)
			}
			if _, err := wire.ParseDistance(payload); err != nil {
				return stats.OpSummary{}, err
			}
		}
		return stats.SummarizeDurations(lat, time.Since(start)), nil
	}
	directCall := func(addr string) caller {
		return func(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
			return pool.Call(ctx, addr, t, payload)
		}
	}

	result := clusterResult{
		Workload: "cluster", Hosts: numHosts, Dim: dim,
		Followers: numFollowers, PreKillEpoch: epoch, KillAtOp: pointOps / 2,
	}
	if result.PointSingle, err = runPoint(directCall(leaderAddr), seed+1); err != nil {
		return err
	}
	if result.PointFollower, err = runPoint(directCall(followerAddrs[0]), seed+1); err != nil {
		return err
	}
	if result.PointSingle.P50Us > 0 {
		result.FollowerP50Ratio = result.PointFollower.P50Us / result.PointSingle.P50Us
	}

	// Failover run: the same stream through a ClusterPool, leader killed
	// halfway. Every query must be answered — errors are counted, not
	// tolerated.
	cp, err := transport.NewClusterPool(transport.ClusterConfig{
		Servers:       append([]string{leaderAddr}, followerAddrs...),
		Pool:          pool,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cp.Close()
	clusterCall := func(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
		rt, rp, _, err := cp.Call(ctx, t, payload)
		return rt, rp, err
	}
	killAt := result.KillAtOp
	{
		rng := rand.New(rand.NewSource(seed + 2))
		lat := make([]time.Duration, 0, pointOps)
		start := time.Now()
		for i := 0; i < pointOps; i++ {
			if i == killAt {
				killLeader()
				leader.Close()
			}
			q := &wire.QueryDist{From: addrs[rng.Intn(numHosts)], To: addrs[rng.Intn(numHosts)]}
			buf = q.Encode(buf[:0])
			t0 := time.Now()
			typ, payload, err := clusterCall(wire.TypeQueryDist, buf)
			if err == nil && typ == wire.TypeDistance {
				if _, err = wire.ParseDistance(payload); err == nil {
					lat = append(lat, time.Since(t0))
					continue
				}
			}
			result.ReadErrors++
		}
		result.PointCluster = stats.SummarizeDurations(lat, time.Since(start))
	}
	result.Failovers = cp.Failovers()
	result.FollowerEpochs = make([]uint64, numFollowers)
	for i, f := range followers {
		result.FollowerEpochs[i] = f.Epoch()
	}
	result.ServerMetrics = reg.Export()

	fmt.Printf("\n== Cluster workload: leader + %d followers, %d hosts, leader killed at op %d ==\n",
		numFollowers, numHosts, killAt)
	fmt.Printf("point query  single (leader):  %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)\n",
		result.PointSingle.Ops, result.PointSingle.P50Us, result.PointSingle.P99Us, result.PointSingle.OpsPerSec)
	fmt.Printf("point query  follower replica: %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)  [p50 ratio %.2fx]\n",
		result.PointFollower.Ops, result.PointFollower.P50Us, result.PointFollower.P99Us, result.PointFollower.OpsPerSec, result.FollowerP50Ratio)
	fmt.Printf("point query  cluster w/ kill:  %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)\n",
		result.PointCluster.Ops, result.PointCluster.P50Us, result.PointCluster.P99Us, result.PointCluster.OpsPerSec)
	fmt.Printf("read errors: %d, failovers: %d, epochs during kill: pre=%d followers=%v\n",
		result.ReadErrors, result.Failovers, result.PreKillEpoch, result.FollowerEpochs)

	if err := writeBenchJSON("BENCH_cluster.json", result); err != nil {
		return err
	}

	// Gates: non-zero exit keeps CI honest.
	var gateErrs []error
	if result.ReadErrors != 0 {
		gateErrs = append(gateErrs, fmt.Errorf("%d read errors across the leader kill, want 0", result.ReadErrors))
	}
	if result.Failovers == 0 {
		gateErrs = append(gateErrs, errors.New("no failovers counted: the kill never exercised the replay path"))
	}
	for i, e := range result.FollowerEpochs {
		if e != result.PreKillEpoch {
			gateErrs = append(gateErrs, fmt.Errorf("follower %d at epoch %d during the kill, want the pre-kill epoch %d", i, e, result.PreKillEpoch))
		}
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("cluster gates violated: %w", errors.Join(gateErrs...))
	}
	fmt.Println("cluster gates: PASS")
	return nil
}
