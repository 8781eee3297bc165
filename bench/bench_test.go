package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10_000, 99.9}, // exactly 10 samples beyond p99.9
		{9_999, 99},
		{1_000, 99}, // exactly 10 beyond p99
		{999, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{5, 50}, // nothing qualifies: the median is all there is
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSlicedP99IgnoresOneBurst(t *testing.T) {
	var s []sample
	for slice := 0; slice < 5; slice++ {
		for i := 0; i < 2000; i++ {
			lat := int64(100)
			if slice == 2 && i < 100 { // a noisy-neighbour burst owns 5 % of one slice
				lat = 1_000_000
			}
			s = append(s, newSample(int64(slice)*1e9+int64(i)*1000, lat))
		}
	}
	// A sixth slice too thin to support a p99 must be dropped, not trusted.
	for i := 0; i < 50; i++ {
		s = append(s, newSample(5e9+int64(i), 9_999_999))
	}
	ns, slices, ok := slicedP99(s, 1_000_000)
	if !ok || slices != 5 || ns != 100 {
		t.Fatalf("slicedP99 = %v over %d slices (ok=%v), want 100 over 5", ns, slices, ok)
	}
	if _, _, ok := slicedP99(s[:500], 1_000_000); ok {
		t.Fatal("500 samples in one slice cannot support a p99")
	}
	sum := summarize(s[:500])
	if !strings.Contains(sum.p99Label, "whole-window p95") {
		t.Fatalf("fallback label %q, want the whole-window p95", sum.p99Label)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Op: 1, Parent: -1, Name: spOp, StartNs: 0, EndNs: 100},
		{Op: 1, Parent: 0, Name: spEncode, StartNs: 10, EndNs: 20},
		{Op: 1, Parent: 0, Name: spCall, StartNs: 20, EndNs: 70},
		{Op: 1, Parent: 2, Name: spRecover, StartNs: 30, EndNs: 60},
		{Op: 1, Parent: 3, Name: spSolve, StartNs: 35, EndNs: 45},
		{Op: 1, Parent: 0, Name: spDecode, StartNs: 70, EndNs: 80},
		// Overlapping children that also stick out of their parent.
		{Op: 2, Parent: -1, Name: spCheck, StartNs: 200, EndNs: 210},
		{Op: 2, Parent: 6, Name: "a", StartNs: 195, EndNs: 205},
		{Op: 2, Parent: 6, Name: "b", StartNs: 203, EndNs: 208},
		// Never closed: ignored.
		{Op: 3, Parent: -1, Name: "open", StartNs: 300, EndNs: 0},
	}
	total, self := selfTimes(spans)
	wantSelf := map[string]int64{
		spOp:      100 - 10 - 50 - 10, // minus encode, call, decode; grandchildren do not count twice
		spEncode:  10,
		spCall:    50 - 30,
		spRecover: 30 - 10,
		spSolve:   10,
		spDecode:  10,
		spCheck:   10 - 8, // children cover [200,208) once
		"a":       10,
		"b":       5,
	}
	if !reflect.DeepEqual(self, wantSelf) {
		t.Errorf("self = %v\nwant   %v", self, wantSelf)
	}
	if total[spOp] != 100 || total[spCall] != 50 {
		t.Errorf("total = %v", total)
	}
	var sum int64
	for _, name := range []string{spOp, spEncode, spCall, spRecover, spSolve, spDecode} {
		sum += self[name]
	}
	if sum != total[spOp] {
		t.Errorf("self times of one op sum to %d, want the op's %d", sum, total[spOp])
	}
}

func TestTracerSamplesEveryStrideAndForcesRecoveringOps(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(epoch, 0)
	for seq := uint64(1); seq <= 2*traceStride; seq++ {
		tr.startOp(seq)
		tr.begin(spCall)
		tr.end()
		if seq == 3 { // an unsampled op discovers it must recover
			tr.forceOp(epoch.Add(-time.Second))
			tr.begin(spRecover)
			tr.end()
		}
		tr.endOp()
	}
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.EndNs < s.StartNs {
			t.Errorf("span %+v never closed", s)
		}
	}
	want := []string{spOp, spRecover, spOp, spCall, spOp, spCall}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("recorded %v, want %v", names, want)
	}
	if tr.spans[0].StartNs != -int64(time.Second) || tr.spans[1].Parent != 0 || tr.spans[3].Parent != 2 {
		t.Fatalf("forced op not back-dated or parents wrong: %+v", tr.spans)
	}
	kept := withoutRecoveries(tr.spans)
	if len(kept) != 4 || kept[1].Parent != 0 || kept[3].Parent != 2 {
		t.Fatalf("withoutRecoveries = %+v", kept)
	}
	var nilTracer *tracer // untraced runs call the same methods
	nilTracer.startOp(1)
	nilTracer.begin(spCall)
	nilTracer.forceOp(epoch)
	nilTracer.end()
	nilTracer.endOp()
}

func TestSameSeedSameRequests(t *testing.T) {
	take := func(seed int64, phase int) []request {
		g := newReqGen(seed, 0, phase, 10_000, mixBulk)
		out := make([]request, 20_000)
		for i := range out {
			r := g.next()
			r.to = append([]int32(nil), r.to...)
			out[i] = r
		}
		return out
	}
	a, b := take(42, phaseTimed), take(42, phaseTimed)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different first 20,000 requests")
	}
	if reflect.DeepEqual(a, take(43, phaseTimed)) {
		t.Fatal("different seeds gave the same requests")
	}
	if reflect.DeepEqual(a, take(42, phaseWarmup)) {
		t.Fatal("warm-up consumes the timed stream")
	}
	var batches int
	for _, r := range a {
		if r.kind == kindBatch {
			batches++
			if len(r.to) != batchTargets {
				t.Fatalf("batch with %d targets", len(r.to))
			}
		}
	}
	if share := float64(batches) / float64(len(a)); share < 0.72 || share > 0.78 {
		t.Fatalf("batch share %.3f, want ~0.75 (3:1 mix)", share)
	}
}

func TestExactKNNMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vecs := make([]core.Vectors, 500)
	for i := range vecs {
		vecs[i] = core.Vectors{Out: []float64{rng.Float64(), rng.Float64()}, In: []float64{rng.Float64(), float64(i % 3)}}
	}
	vecs[7].In = vecs[9].In // a tie, broken by index
	const from, k = 4, 16
	var all []scored
	for i := range vecs {
		if i != from {
			all = append(all, scored{mat.Dot(vecs[from].Out, vecs[i].In), i})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	got := exactKNN(vecs, from, k)
	for i := range got {
		if got[i] != all[i].idx {
			t.Fatalf("exactKNN[%d] = %d, want %d", i, got[i], all[i].idx)
		}
	}
	if len(got) != k || len(exactKNN(vecs[:5], 0, k)) != 4 {
		t.Fatal("wrong result size")
	}
}

func TestPinToOneCPU(t *testing.T) {
	before, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := setAffinity(before); err != nil {
			t.Error(err)
		}
	}()
	if err := pinToOneCPU(); err != nil {
		t.Fatal(err)
	}
	pinned, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	first := before.first()
	if pinned.count() != 1 || pinned != first {
		t.Fatalf("pinned to %d CPUs (%v), want only the lowest of %v", pinned.count(), pinned, before)
	}
}

func TestClassify(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"within bound", []float64{100, 101, 99, 100}, []float64{105, 104, 106, 105}, lower, verdictOK},
		{"worse beyond bound", []float64{100, 101, 99, 100}, []float64{115, 114, 116, 115}, lower, verdictRegressed},
		{"better", []float64{100, 101, 99, 100}, []float64{50, 51, 49, 50}, lower, verdictOK},
		{"throughput drop", []float64{1000, 1010, 990, 1000}, []float64{850, 860, 840, 850}, higher, verdictRegressed},
		{"throughput gain", []float64{1000, 1010, 990, 1000}, []float64{1500, 1510, 1490, 1500}, higher, verdictOK},
		{"noisy overlap", []float64{100, 140, 80, 120}, []float64{110, 150, 90, 130}, lower, verdictUnresolved},
		{"noisy but every run better", []float64{100, 140, 80, 120}, []float64{50, 70, 40, 60}, lower, verdictOK},
		{"noisy but every run far worse", []float64{100, 140, 80, 120}, []float64{300, 340, 280, 320}, lower, verdictRegressed},
		{"single runs", []float64{100}, []float64{120}, lower, verdictRegressed},
	} {
		if got, _, _ := classify(tc.a, tc.b, tc.def); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		f := resultFile{Workloads: map[string]*result{"point-serial": {
			Workload: "point-serial", Correct: true, Attempted: 10,
			Metrics: map[string]float64{"p50_us": p50, "ops_per_s": 1e6 / p50},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 13), write("same.json", 13.2), write("slow.json", 20)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, same); err != nil || regressed {
		t.Fatalf("13 -> 13.2 us: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, a+","+same, slow)
	if err != nil || !regressed {
		t.Fatalf("13 -> 20 us: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "of 13.1") {
		t.Fatalf("rows lack verdict or the ratio's base:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatches keeps ../BENCHMARK.json, which the driver
// reads, in step with the metric and workload tables the bench prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", decl.Workloads, workloads)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", decl.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", decl.Paths, decl.RunSeconds)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// TestQuickSmoke runs all four workloads at toy scale, untraced and
// traced, with every correctness check on.
func TestQuickSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{workload: w.Name, seed: 42, window: 400 * time.Millisecond, warmup: 100 * time.Millisecond, trace: trace, quick: true}
			rc.setups = len(rc.phases())
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, err := runWorkload(ctx, rc)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				}
			}
			for name := range res.Metrics {
				if !declared(defs, name) {
					t.Errorf("%s trace=%v: metric %s reported but not declared", w.Name, trace, name)
				}
			}
		}
	}
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
