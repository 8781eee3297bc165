package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// solverSideResult is one solver strategy's measurements under the same
// churn workload.
type solverSideResult struct {
	Solver string `json:"solver"`

	// Counters over the churn window only.
	Fits            uint64  `json:"fits"`
	Revisions       uint64  `json:"revisions"`
	RefreshesPerSec float64 `json:"refreshes_per_sec"`
	EpochBumps      uint64  `json:"epoch_bumps"`

	// Steady-state accuracy of the served model against the ground-truth
	// RTT matrix, sampled over the second half of the churn window.
	SteadyMedianRelErr float64 `json:"steady_median_rel_err"`
	SteadyP90RelErr    float64 `json:"steady_p90_rel_err"`

	// RefreshLatency is report→served-model-reflects-it, measured by
	// step-change probes after the churn window.
	RefreshLatency stats.OpSummary `json:"refresh_latency"`

	HostsRegistered int `json:"hosts_registered"`
	// HostsSurviving counts directory entries still resolving at the end
	// of the churn window: epoch bumps evict them, incremental revisions
	// must not.
	HostsSurviving int `json:"hosts_surviving"`

	// ServerMetrics is the final scrape of this side's telemetry
	// registry, keyed by exposition name.
	ServerMetrics map[string]float64 `json:"server_metrics"`
}

// solverResult is the JSON shape written to BENCH_solver.json.
type solverResult struct {
	Workload    string  `json:"workload"`
	Landmarks   int     `json:"landmarks"`
	Dim         int     `json:"dim"`
	Hosts       int     `json:"hosts"`
	DurationSec float64 `json:"duration_sec"`

	Batch solverSideResult `json:"batch"`
	SGD   solverSideResult `json:"sgd"`

	// MedianErrRatio is SGD steady-state median error over batch's (the
	// acceptance bar is <= 1.10); RefreshRateRatio is SGD's model
	// refreshes per second over batch's.
	MedianErrRatio   float64 `json:"median_err_ratio"`
	RefreshRateRatio float64 `json:"refresh_rate_ratio"`
}

// runSolver is the model-update workload: the same measurement churn is
// served twice — once with the batch solver (every refresh a full
// refit, epoch bump, host re-solve storm) and once with the SGD solver
// (O(d) incremental updates publishing revisions under one epoch). It
// measures steady-state model accuracy, model refresh rate, the
// report→served-model refresh latency, and whether registered host
// vectors survive. Writes BENCH_solver.json.
func runSolver(scale experiments.Scale, seed int64) error {
	p := solverParams{
		numLM:    16,
		numHosts: 100,
		churn:    2 * time.Second,
		probes:   5,
	}
	if scale == experiments.Full {
		p = solverParams{numLM: 30, numHosts: 1_000, churn: 8 * time.Second, probes: 10}
	}

	batch, err := runSolverSide(solve.Batch, p, seed)
	if err != nil {
		return fmt.Errorf("batch side: %w", err)
	}
	sgd, err := runSolverSide(solve.SGD, p, seed)
	if err != nil {
		return fmt.Errorf("sgd side: %w", err)
	}

	result := solverResult{
		Workload:    "solver",
		Landmarks:   p.numLM,
		Dim:         solverDim,
		Hosts:       p.numHosts,
		DurationSec: p.churn.Seconds(),
		Batch:       batch,
		SGD:         sgd,
	}
	if batch.SteadyMedianRelErr > 0 {
		result.MedianErrRatio = sgd.SteadyMedianRelErr / batch.SteadyMedianRelErr
	}
	if batch.RefreshesPerSec > 0 {
		result.RefreshRateRatio = sgd.RefreshesPerSec / batch.RefreshesPerSec
	}

	fmt.Printf("\n== Solver workload: %d landmarks, %d hosts, %v of measurement churn ==\n",
		p.numLM, p.numHosts, p.churn)
	for _, s := range []solverSideResult{batch, sgd} {
		fmt.Printf("%-5s: %d fits + %d revisions (%.1f refreshes/s), %d epoch bumps, "+
			"steady median err %.4f p90 %.4f, hosts surviving %d/%d\n",
			s.Solver, s.Fits, s.Revisions, s.RefreshesPerSec, s.EpochBumps,
			s.SteadyMedianRelErr, s.SteadyP90RelErr, s.HostsSurviving, s.HostsRegistered)
		fmt.Printf("       refresh latency: %v\n", s.RefreshLatency)
	}
	fmt.Printf("sgd/batch: median err ratio %.3f, refresh rate ratio %.1fx\n",
		result.MedianErrRatio, result.RefreshRateRatio)

	return writeBenchJSON("BENCH_solver.json", result)
}

const (
	solverDim         = 8
	solverReportEvery = 5 * time.Millisecond
	solverSampleEvery = 20 * time.Millisecond
	// solverRefitInterval is the batch side's refit debounce: its model
	// refresh rate is capped at one per interval however fast reports
	// arrive, which is exactly the stall the SGD side removes.
	solverRefitInterval = 250 * time.Millisecond
)

type solverParams struct {
	numLM    int
	numHosts int
	churn    time.Duration
	probes   int
}

// runSolverSide runs the full workload against one solver strategy.
func runSolverSide(kind solve.Kind, p solverParams, seed int64) (solverSideResult, error) {
	res := solverSideResult{Solver: kind.String()}
	rng := rand.New(rand.NewSource(seed))

	// Landmarks and hosts are points on a plane, RTT = floor + scaled
	// Euclidean distance: a low-rank-friendly geometry like the paper's
	// datasets, identical across both sides (same seed).
	type pt struct{ x, y float64 }
	lmPts := make([]pt, p.numLM)
	lmNames := make([]string, p.numLM)
	for i := range lmPts {
		lmPts[i] = pt{rng.Float64() * 100, rng.Float64() * 100}
		lmNames[i] = fmt.Sprintf("lm-%02d", i)
	}
	rtt := func(a, b pt) float64 { return 2 + math.Hypot(a.x-b.x, a.y-b.y) }
	truth := mat.NewDense(p.numLM, p.numLM)
	for i := range lmPts {
		for j := range lmPts {
			if i != j {
				truth.Set(i, j, rtt(lmPts[i], lmPts[j]))
			}
		}
	}

	mreg := telemetry.NewRegistry()
	srv, err := server.New(server.Config{
		Landmarks:        lmNames,
		Dim:              solverDim,
		Seed:             seed,
		RefitMinInterval: solverRefitInterval,
		RefitThreshold:   1,
		Solver:           kind,
		Metrics:          mreg,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	addr, stop, err := serveLoopback(srv)
	if err != nil {
		return res, err
	}
	defer stop()
	pool, err := newLoopbackPool(mreg)
	if err != nil {
		return res, err
	}
	defer pool.Close()
	ctx := context.Background()

	// reportRow reports landmark from's full measurement row, each entry
	// scaled by rowScale and jittered by ±jitter/2.
	reportRow := func(from int, rowScale, jitter float64, rowRng *rand.Rand) error {
		rep := &wire.ReportRTT{From: lmNames[from]}
		for j := range lmNames {
			if j == from {
				continue
			}
			ms := truth.At(from, j) * rowScale
			if jitter > 0 {
				ms *= 1 + jitter*(rowRng.Float64()-0.5)
			}
			rep.Entries = append(rep.Entries, wire.RTTEntry{To: lmNames[j], RTTMillis: ms})
		}
		typ, _, err := pool.Call(ctx, addr, wire.TypeReportRTT, rep.Encode(nil))
		if err != nil {
			return err
		}
		if typ != wire.TypeAck {
			return fmt.Errorf("report answered %v", typ)
		}
		return nil
	}
	for i := range lmNames {
		if err := reportRow(i, 1, 0, rng); err != nil {
			return res, err
		}
	}

	// fetchModel returns the served landmark vectors; the first call
	// waits for the seeding fit.
	fetchModel := func() (*wire.Model, *mat.Dense, *mat.Dense, error) {
		typ, payload, err := pool.Call(ctx, addr, wire.TypeGetModel, nil)
		if err != nil || typ != wire.TypeModel {
			return nil, nil, nil, fmt.Errorf("GetModel: %v %v", typ, err)
		}
		m, err := wire.DecodeModel(payload)
		if err != nil {
			return nil, nil, nil, err
		}
		refOut := mat.NewDense(p.numLM, solverDim)
		refIn := mat.NewDense(p.numLM, solverDim)
		for i := range m.Landmarks {
			refOut.SetRow(i, m.Landmarks[i].Out)
			refIn.SetRow(i, m.Landmarks[i].In)
		}
		return m, refOut, refIn, nil
	}
	m0, refOut, refIn, err := fetchModel()
	if err != nil {
		return res, err
	}

	// Register a host population solved against the seed model: the
	// survival check at churn end tells whether the strategy preserved
	// their vectors (revisions) or invalidated them (epoch bumps).
	var buf []byte
	for h := 0; h < p.numHosts; h++ {
		hp := pt{rng.Float64() * 100, rng.Float64() * 100}
		d := make([]float64, p.numLM)
		for j, lp := range lmPts {
			d[j] = rtt(hp, lp)
		}
		v, err := core.SolveVectors(refOut, refIn, d, d)
		if err != nil {
			return res, err
		}
		reg := &wire.RegisterHost{Addr: fmt.Sprintf("host-%06d", h), Out: v.Out, In: v.In, Epoch: m0.Epoch}
		buf = reg.Encode(buf[:0])
		typ, _, err := pool.Call(ctx, addr, wire.TypeRegisterHost, buf)
		if err != nil {
			return res, err
		}
		if typ != wire.TypeAck {
			// A refit between fetch and register (possible on the batch
			// side) rejects the epoch; the survival comparison only needs
			// the hosts that did land.
			continue
		}
		res.HostsRegistered++
	}

	// modelErrors scores every served landmark pair against the truth.
	modelErrors := func(m *wire.Model) []float64 {
		errs := make([]float64, 0, p.numLM*(p.numLM-1))
		for i := range m.Landmarks {
			for j := range m.Landmarks {
				if i == j {
					continue
				}
				est := mat.Dot(m.Landmarks[i].Out, m.Landmarks[j].In)
				errs = append(errs, stats.RelativeError(truth.At(i, j), est))
			}
		}
		return errs
	}

	// Churn window: jittered reports at a steady cadence, periodic
	// accuracy samples of the served model.
	startStats := srv.LifecycleStats()
	startEpoch := startStats.Epoch
	reportTick := time.NewTicker(solverReportEvery)
	sampleTick := time.NewTicker(solverSampleEvery)
	defer reportTick.Stop()
	defer sampleTick.Stop()
	type sample struct {
		at   time.Duration
		errs []float64
	}
	var samples []sample
	churnStart := time.Now()
	deadline := churnStart.Add(p.churn)
	for i := 0; time.Now().Before(deadline); {
		select {
		case <-reportTick.C:
			if err := reportRow(i%p.numLM, 1, 0.05, rng); err != nil {
				return res, err
			}
			i++
		case <-sampleTick.C:
			m, _, _, err := fetchModel()
			if err != nil {
				return res, err
			}
			samples = append(samples, sample{at: time.Since(churnStart), errs: modelErrors(m)})
		}
	}
	reportTick.Stop()
	endStats := srv.LifecycleStats()
	res.Fits = endStats.Fits - startStats.Fits
	res.Revisions = endStats.Revisions - startStats.Revisions
	res.RefreshesPerSec = float64(res.Fits+res.Revisions) / p.churn.Seconds()
	res.EpochBumps = endStats.Epoch - startEpoch
	res.HostsSurviving = srv.NumHosts()

	// Steady state: pool the pair errors of the second-half samples.
	var steady []float64
	for _, s := range samples {
		if s.at >= p.churn/2 {
			steady = append(steady, s.errs...)
		}
	}
	if len(steady) == 0 {
		return res, fmt.Errorf("no accuracy samples in steady-state window")
	}
	res.SteadyMedianRelErr = stats.Median(steady)
	res.SteadyP90RelErr = stats.Percentile(steady, 90)

	// Refresh-latency probes: scale one landmark's row — a change a
	// low-rank model can represent — and poll the served model until its
	// row estimates have moved at least a quarter of the way. The batch
	// side pays the refit debounce plus a full factorization per probe;
	// the SGD side pays one delta application.
	const probeScale = 1.5
	lat := make([]time.Duration, 0, p.probes)
	for k := 0; k < p.probes; k++ {
		a := k % p.numLM
		m, _, _, err := fetchModel()
		if err != nil {
			return res, err
		}
		base := make([]float64, p.numLM)
		var gap0 float64
		for j := range lmNames {
			if j == a {
				continue
			}
			base[j] = mat.Dot(m.Landmarks[a].Out, m.Landmarks[j].In)
			gap0 += math.Abs(truth.At(a, j)*probeScale - base[j])
		}
		t0 := time.Now()
		if err := reportRow(a, probeScale, 0, rng); err != nil {
			return res, err
		}
		for {
			m, _, _, err := fetchModel()
			if err != nil {
				return res, err
			}
			var moved float64
			for j := range lmNames {
				if j == a {
					continue
				}
				moved += math.Abs(mat.Dot(m.Landmarks[a].Out, m.Landmarks[j].In) - base[j])
			}
			if moved >= gap0/4 {
				lat = append(lat, time.Since(t0))
				break
			}
			if time.Since(t0) > 5*time.Second {
				return res, fmt.Errorf("refresh probe %d: served model never reflected the change", k)
			}
			time.Sleep(time.Millisecond)
		}
		// Restore the row; no need to wait for it to be reflected, the
		// next probe reads its own baseline.
		if err := reportRow(a, 1, 0, rng); err != nil {
			return res, err
		}
	}
	res.RefreshLatency = stats.SummarizeDurations(lat, 0)
	res.ServerMetrics = mreg.Export()
	return res, nil
}
