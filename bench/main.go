// Command bench is the repository's one benchmark: four long workloads
// that drive the production IDES code over loopback TCP and simnet from
// a single process, check every answer, and print every metric by name.
// See README.md and ../BENCHMARK.json.
//
//	go run . -workload point-serial -seed 42 -seconds 20 -trace 0
//	go run . -compare out/a.json out/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runDeadline bounds one workload run, set-ups and probes included.
const runDeadline = 170 * time.Second

// outDir receives result files and traces; it is relative to the bench
// directory, which run.sh and `go run .` both run from.
const outDir = "out"

// env is the provenance stamped on every result.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Dataset    int64   `json:"dataset_seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Setups     int     `json:"setups"`
	Affinity   string  `json:"affinity"`
	Traffic    string  `json:"traffic"`
	Scale      string  `json:"scale"`
}

func stamp(rc runConfig) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       rc.seed,
		Dataset:    datasetSeed,
		WindowS:    rc.window.Seconds(),
		WarmupS:    rc.warmup.Seconds(),
		Setups:     rc.setups,
		Traffic:    "host loopback TCP / simnet, in-process server, closed loop",
		Scale:      "point-serial 10000 hosts; bulk-pipelined 100000 hosts; refit-churn 8192 hosts; gossip-fleet 2000 peers; 20 landmarks, d=8",
	}
	if rc.quick {
		e.Scale = "QUICK: 256 hosts/peers, toy windows — numbers are never reported"
	}
	// A driver checkout is not a git repository; the stamp says so.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

// resultFile is the shape of out/result*.json, and what -compare reads.
type resultFile struct {
	Env       env                `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in a fresh child process)")
		seed     = flag.Int64("seed", 42, "seed for request streams, report jitter, model fit and sampled pairs")
		seconds  = flag.Int("seconds", 30, "length of the timed window, seconds")
		trace    = flag.Int("trace", 0, "1: traced run (per-layer metrics, spans to out/trace-<workload>.jsonl); 0: end-to-end metrics")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		quick    = flag.Bool("quick", false, "toy scale smoke (256 hosts/peers, <=1 s windows); numbers are never reported")
	)
	flag.Parse()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal(errors.New("usage: -workload NAME -seed N -seconds S -trace 0|1 [-quick]"))
	}
	rc := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		warmup:   2 * time.Second,
		trace:    *trace == 1,
		quick:    *quick,
		setups:   3,
	}
	if rc.quick {
		rc.window, rc.warmup, rc.setups = min(rc.window, time.Second), 200*time.Millisecond, len(rc.phases())
	}
	if rc.workload == "all" {
		if err := runAll(rc); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runOne(rc)
	if err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runOne runs a single workload in this process, prints it, writes
// out/result-<workload>.json (not for -quick), and ends stdout with the
// one-line JSON the driver reads.
func runOne(rc runConfig) (*result, error) {
	e := stamp(rc)
	e.Affinity = "all CPUs"
	if singleInFlight(rc.workload) {
		if err := pinToOneCPU(); err != nil {
			return nil, err
		}
		e.Affinity = "pinned to 1 CPU (one op in flight; see affinity.go)"
	}
	fmt.Printf("# bench %s  commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q\n", rc.workload, e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel)
	fmt.Printf("# seed=%d dataset_seed=%d window=%gs warmup=%gs setups=%d trace=%v\n", e.Seed, e.Dataset, e.WindowS, e.WarmupS, e.Setups, rc.trace)
	fmt.Printf("# %s; %s\n# %s\n", e.Traffic, e.Affinity, e.Scale)
	for _, w := range workloads {
		if w.Name == rc.workload {
			fmt.Printf("# why: %s\n", w.Why)
		}
	}
	// One deadline for the whole run: it keeps a wedged run inside the
	// driver's 180 s limit, and a context that already carries a
	// deadline is what lets the pool's call path stay allocation-free
	// (without one it derives a timeout context per call).
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, rc)
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		res.gate("%d of %d operations failed", res.Failed, res.Attempted)
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	printResult(res, defs)
	if !rc.quick {
		file := resultFile{Env: e, Workloads: map[string]*result{rc.workload: res}}
		if err := writeJSON(resultPath(rc.workload, rc.trace), file); err != nil {
			return nil, err
		}
	}
	// The contract line: exactly correct, attempted, failed, metrics.
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))
	return res, nil
}

// resultPath is out/result-<workload>.json, or out/result.json for the
// merged file of an "all" run; traced runs get a -trace suffix.
func resultPath(workload string, trace bool) string {
	name := "result"
	if workload != "all" {
		name += "-" + workload
	}
	if trace {
		name += "-trace"
	}
	return filepath.Join(outDir, name+".json")
}

func printResult(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-36s %16.6f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, n := range res.Notes {
		fmt.Println("# " + n)
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Println("# FAILED CHECK: " + f)
	}
}

// runAll runs every workload in a fresh child process each, so RSS and
// GC state do not leak between workloads, and merges their result files
// into out/result.json (out/result-trace.json for traced runs).
func runAll(rc runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if rc.trace {
		traceArg = "1"
	}
	merged := resultFile{Workloads: map[string]*result{}}
	failed := false
	for _, w := range workloads {
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(rc.seed), "-seconds", fmt.Sprint(int(rc.window / time.Second)), "-trace", traceArg}
		if rc.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			failed = true // exit 1: ran to the end, a check failed
		}
		if rc.quick {
			continue
		}
		b, err := os.ReadFile(resultPath(w.Name, rc.trace))
		if err != nil {
			return err
		}
		var one resultFile
		if err := json.Unmarshal(b, &one); err != nil {
			return err
		}
		merged.Env = one.Env
		merged.Workloads[w.Name] = one.Workloads[w.Name]
	}
	if !rc.quick {
		if err := writeJSON(resultPath("all", rc.trace), merged); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", resultPath("all", rc.trace))
	}
	if failed {
		return errIncorrect
	}
	return nil
}
