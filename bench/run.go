package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
)

// datasetSeed generates the topology every run measures — the stand-in
// for the paper's fixed measurement datasets. The run's -seed drives
// everything else: request streams, report jitter, the model fit, which
// pairs are scored. Accuracy of D ≈ X·Yᵀ depends on where the landmarks
// fall in the topology far more than on anything a PR changes (across
// ten topology seeds the gossip p90 error spread 45 % of its median), so
// a per-seed topology would bury every accuracy regression in noise.
const datasetSeed = 20040101

// Accuracy gates: the repo's Fig-2 bounds on the modified relative error.
const (
	gateMedianRelErr = 0.30
	gateP90RelErr    = 1.0
)

// runConfig is one workload invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	quick    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// scale returns full or -quick (toy) sizes.
func (rc runConfig) scale(full, quick int) int {
	if rc.quick {
		return quick
	}
	return full
}

// result is one workload's outcome: the shape of out/result-*.json and,
// minus the bookkeeping, of the last stdout line.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// gate marks the run incorrect.
func (r *result) gate(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// phase is one deployment's share of a run. An untraced run has one
// phase; a traced run measures half the window on a plain deployment
// and half on one with the telemetry registry attached and spans
// recorded, so trace.overhead_ratio compares like with like.
type phase struct {
	traced bool
	window time.Duration
}

func (rc runConfig) phases() []phase {
	if !rc.trace {
		return []phase{{false, rc.window}}
	}
	return []phase{{false, rc.window / 2}, {true, rc.window / 2}}
}

func runWorkload(ctx context.Context, rc runConfig) (*result, error) {
	switch rc.workload {
	case "point-serial":
		return runServing(ctx, rc, rc.scale(10_000, 256), servingSpec{callers: 1, mix: mixPoint}, false)
	case "bulk-pipelined":
		return runServing(ctx, rc, rc.scale(100_000, 256), servingSpec{callers: 8, mix: mixBulk}, false)
	case "refit-churn":
		// 8192 is twice the engine's k-NN index threshold.
		return runServing(ctx, rc, rc.scale(8192, 256), servingSpec{callers: 1, mix: mixChurn}, true)
	case "gossip-fleet":
		return runGossip(ctx, rc, gossipSpec{peers: rc.scale(2000, 256), accuracyRound: rc.scale(150, 60), pairs: rc.scale(gossipAccuracyPairs, 2000)})
	}
	return nil, fmt.Errorf("unknown workload %q", rc.workload)
}

// churnRefitInterval is refit-churn's RefitMinInterval; the reporter
// sends five reports per interval (one every 200 ms at full scale), so
// the server refits once per interval.
func (rc runConfig) churnRefitInterval() time.Duration {
	if rc.quick {
		return 100 * time.Millisecond
	}
	return time.Second
}

// runServing runs one of the three loopback-TCP workloads.
func runServing(ctx context.Context, rc runConfig, hosts int, spec servingSpec, churning bool) (*result, error) {
	res := &result{Workload: rc.workload, Trace: rc.trace, Correct: true, Metrics: map[string]float64{}}
	t := time.Now()
	topo, err := generateDataset(hosts)
	if err != nil {
		return nil, err
	}
	generate := time.Since(t)
	cfg := deployConfig{hosts: hosts, seed: rc.seed, topo: topo, scored: rc.scale(accuracySample, 5000)}
	if churning {
		cfg.refitMinInterval = rc.churnRefitInterval()
	}
	phases := rc.phases()
	var setups []float64
	// Set-ups beyond the ones the phases use are timed and torn down.
	for i := len(phases); i < rc.setups; i++ {
		d, err := deploy(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		d.close()
	}
	resetPeakRSS()

	var plainOps float64
	for _, ph := range phases {
		pcfg := cfg
		if ph.traced {
			pcfg.metrics = telemetry.NewRegistry()
		}
		d, err := deploy(ctx, pcfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		err = func() error {
			defer d.close()
			pspec := spec
			var ch *churn
			if churning {
				ch = &churn{d: d, seed: rc.seed, every: cfg.refitMinInterval / 5}
				pspec.onStale = ch.recover
				ch.startReporter(ctx)
			}
			var before layerSnapshot
			w := runServingWindow(ctx, d, pspec, rc.seed, rc.warmup, ph.window, ph.traced,
				func() { before = takeSnapshot(d, ph.traced) })
			after := takeSnapshot(d, ph.traced)
			if ch != nil {
				if err := ch.stopReporter(); err != nil {
					return err
				}
			}
			res.Attempted += w.attempted
			res.Failed += w.failed
			res.Failures = append(res.Failures, w.failures...)
			if w.knnWant != w.knnGot {
				res.gate("k-NN exact comparison: %d of %d entries matched", w.knnGot, w.knnWant)
			}
			if churning && w.staleReads == 0 {
				res.gate("refit-churn saw no epoch move in its window")
			}
			opsPerS := w.opsPerSecond()
			if !ph.traced && rc.trace {
				plainOps = opsPerS
				return nil
			}

			var refit time.Duration
			if churning {
				// The window's refit timing is not reproducible; the
				// final clean generation is.
				if w.relErr, refit, err = ch.finalAccuracy(ctx); err != nil {
					return err
				}
			}
			checkAccuracy(res, w.relErr)
			if !ph.traced {
				endToEndMetrics(res, w, opsPerS, setups)
				return nil
			}
			m := res.Metrics
			windowLayerMetrics(res, w, before.usage, after.usage)
			m["trace.overhead_ratio"] = opsPerS / plainOps
			m["lifecycle.stale_reads"] = float64(w.staleReads)
			if churning {
				m["lifecycle.refit_ms"] = float64(refit) / 1e6
				m["lifecycle.recovery_p50_ms"] = float64(ch.recoveryP50()) / 1e6
			}
			pr := prober{m: m, div: rc.scale(1, 20)}
			if err := servingLayerMetrics(ctx, pr, d, w, before, after, generate); err != nil {
				return err
			}
			// The layers this workload never touches, at probe scale.
			if err := gossipLayerMetrics(ctx, pr, nil, 0); err != nil {
				return err
			}
			return writeTrace(filepath.Join(outDir, "trace-"+rc.workload+".jsonl"), rc.workload, w.tracers)
		}()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runGossip runs the simnet gossip workload.
func runGossip(ctx context.Context, rc runConfig, spec gossipSpec) (*result, error) {
	res := &result{Workload: rc.workload, Trace: rc.trace, Correct: true, Metrics: map[string]float64{}}
	phases := rc.phases()
	var setups []float64
	for i := len(phases); i < rc.setups; i++ {
		g, boot, err := bootGossip(spec, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, boot.Seconds())
		g.Close()
	}
	resetPeakRSS()
	var plainOps float64
	for _, ph := range phases {
		var reg *telemetry.Registry
		if ph.traced {
			reg = telemetry.NewRegistry()
		}
		g, boot, err := bootGossip(spec, reg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, boot.Seconds())
		err = func() error {
			defer g.Close()
			pspec := spec
			if !ph.traced && rc.trace {
				pspec.accuracyRound = 0 // the traced half samples accuracy
			}
			var before usage
			w, err := runGossipWindow(ctx, g, pspec, rc.seed, ph.window, ph.traced,
				func() { before = takeUsage(ph.traced) })
			after := takeUsage(ph.traced)
			if err != nil {
				return err
			}
			res.Attempted += w.attempted
			res.Failed += w.failed
			res.Failures = append(res.Failures, w.failures...)
			opsPerS := w.opsPerSecond()
			if !ph.traced && rc.trace {
				plainOps = opsPerS
				return nil
			}
			res.notef("%d rounds driven, accuracy sampled after round %d", w.rounds, spec.accuracyRound)
			checkAccuracy(res, w.relErr)
			if !ph.traced {
				endToEndMetrics(res, &w.windowResult, opsPerS, setups)
				return nil
			}
			m := res.Metrics
			windowLayerMetrics(res, &w.windowResult, before, after)
			m["trace.overhead_ratio"] = opsPerS / plainOps
			m["peer.failed_rounds"] = float64(w.failed)
			for name := range reg.Export() {
				if strings.HasPrefix(name, "ides_server_requests_total") && strings.Contains(name, "Query") {
					res.gate("gossip-fleet reached the server query path: %s", name)
				}
			}
			pr := prober{m: m, div: rc.scale(1, 20)}
			if err := gossipLayerMetrics(ctx, pr, g, boot); err != nil {
				return err
			}
			// The layers this workload never touches, at probe scale.
			if err := probeDeployment(ctx, pr, rc); err != nil {
				return err
			}
			return writeTrace(filepath.Join(outDir, "trace-"+rc.workload+".jsonl"), rc.workload, w.tracers)
		}()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkAccuracy applies the Fig-2 gates and stores the two accuracy
// figures (end-to-end metrics; a traced run only gates on them).
func checkAccuracy(res *result, relErr []float64) {
	if len(relErr) == 0 {
		res.gate("no served estimates were scored against ground truth")
		return
	}
	sum := stats.Summarize(relErr)
	res.notef("relative error over %d served estimates: median %.6f p90 %.6f", sum.N, sum.Median, sum.P90)
	if sum.Median > gateMedianRelErr {
		res.gate("median_rel_err %.4f above the %.2f gate", sum.Median, gateMedianRelErr)
	}
	if sum.P90 > gateP90RelErr {
		res.gate("p90_rel_err %.4f above the %.2f gate", sum.P90, gateP90RelErr)
	}
	if !res.Trace {
		res.Metrics["median_rel_err"] = sum.Median
		res.Metrics["p90_rel_err"] = sum.P90
	}
}

// endToEndMetrics fills in what an untraced run reports.
func endToEndMetrics(res *result, w *windowResult, opsPerS float64, setups []float64) {
	all := w.all()
	lat := summarize(all)
	m := res.Metrics
	m["setup_s"] = stats.Median(setups)
	m["ops_per_s"] = opsPerS
	m["p50_us"] = lat.p50Us
	debug.FreeOSMemory()
	m["rss_mb"] = procStatusMB("VmRSS:")
	res.notef("ops per 1-s slice: %.0f; whole-window mean %.1f/s", sliceRates(all, w.wall), float64(w.ok())/w.wall.Seconds())
	res.notef("latency over %d ops in %.2f s; setup_s is the median of %d set-ups", lat.n, w.wall.Seconds(), len(setups))
	res.notef("not bounded, for the record: p99 %.3f us (%s), peak RSS %.1f MB, machine calibration loop %.2f ms",
		lat.p99Us, lat.p99Label, procStatusMB("VmHWM:"), float64(calibrate())/1e6)
}

// resetPeakRSS collects garbage and restarts the kernel's resident-set
// high-water mark, so the reported peak covers the measured deployment
// and its window, not the dataset generator's transient garbage or the
// set-ups that were timed and torn down. Best effort: where
// /proc/self/clear_refs cannot be written the peak covers the whole
// process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5: reset VmHWM
}

// procStatusMB reads one kB field of /proc/self/status ("VmRSS:", the
// resident set now; "VmHWM:", its high-water mark) in MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

var errIncorrect = errors.New("a correctness check failed")
