package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// SystemRunner packages one system's full model-building run on a fixed
// prediction problem, for fine-grained benchmarking.
type SystemRunner struct {
	Name string
	Run  func() error
}

// PredictionRunners builds the Figure 6 prediction problem for dsName once
// and returns one runner per system, so benchmarks can time each system in
// isolation (the granular form of Table 1).
func PredictionRunners(dsName string, scale Scale, seed int64) ([]SystemRunner, error) {
	const dim = 8
	p, err := fig6Problem(dsName, scale, seed)
	if err != nil {
		return nil, err
	}
	return []SystemRunner{
		{Name: "IDES-SVD", Run: func() error { _, err := runIDES(p, dim, core.SVD, seed, 0); return err }},
		{Name: "IDES-NMF", Run: func() error { _, err := runIDES(p, dim, core.NMF, seed, fig6NMFIters); return err }},
		{Name: "ICS", Run: func() error { _, err := runICS(p, dim); return err }},
		{Name: "GNP", Run: func() error { _, err := runGNP(p, dim, seed); return err }},
	}, nil
}

// SVDAlgoResult compares the exact Jacobi SVD against randomized subspace
// iteration at one matrix size.
type SVDAlgoResult struct {
	N           int
	ExactTime   time.Duration
	ApproxTime  time.Duration
	ApproxError float64 // relative spectral deviation of the leading d values
}

// AblationSVDAlgorithms justifies the svdExactThreshold design choice: for
// RTT matrices the randomized truncated SVD matches the exact leading
// spectrum to several digits while scaling far better.
func AblationSVDAlgorithms(sizes []int, dim int, seed int64) ([]SVDAlgoResult, error) {
	out := make([]SVDAlgoResult, 0, len(sizes))
	for _, n := range sizes {
		ds, err := genP2PSimSized(seed, n)
		if err != nil {
			return nil, err
		}
		var exact, approx *mat.SVDResult
		exactTime, err := timeRun(func() error {
			var err error
			exact, err = mat.SVD(ds)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ablation svd: exact n=%d: %w", n, err)
		}
		approxTime, err := timeRun(func() error {
			var err error
			approx, err = mat.TruncatedSVD(ds, dim, seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ablation svd: approx n=%d: %w", n, err)
		}
		var dev float64
		for i := 0; i < dim; i++ {
			if exact.S[i] > 0 {
				if d := abs(exact.S[i]-approx.S[i]) / exact.S[i]; d > dev {
					dev = d
				}
			}
		}
		out = append(out, SVDAlgoResult{N: n, ExactTime: exactTime, ApproxTime: approxTime, ApproxError: dev})
	}
	return out, nil
}

func genP2PSimSized(seed int64, n int) (*mat.Dense, error) {
	ds, err := genByName("P2PSim", Quick, seed)
	if err != nil {
		return nil, err
	}
	if n >= ds.Rows() {
		return ds.D, nil
	}
	idx := rand.New(rand.NewSource(seed)).Perm(ds.Rows())[:n]
	return submatrix(ds.D, idx, idx), nil
}

// NMFItersResult is the reconstruction error reached with one iteration
// budget.
type NMFItersResult struct {
	Iters  int
	Median float64
}

// AblationNMFIterations probes the paper's statement that "two hundred
// iterations suffice to converge": median NLANR reconstruction error as a
// function of the iteration budget.
func AblationNMFIterations(seed int64, iters []int) ([]NMFItersResult, error) {
	ds, err := genByName("NLANR", Quick, seed)
	if err != nil {
		return nil, err
	}
	const dim = 10
	out := make([]NMFItersResult, 0, len(iters))
	for _, it := range iters {
		res, err := factor.NMF(ds.D, dim, factor.NMFOptions{Iters: it, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("ablation nmf iters=%d: %w", it, err)
		}
		out = append(out, NMFItersResult{Iters: it, Median: stats.Median(res.ReconstructionErrors(ds.D))})
	}
	return out, nil
}

// NNLSResult compares unconstrained and nonnegative host solves.
type NNLSResult struct {
	MedianUnconstrained float64
	MedianNNLS          float64
	NegativePredictions int // negative estimates from the unconstrained solve
}

// AblationHostSolveNNLS checks §5.1's claim that nonnegativity-constrained
// host solves neither help nor hurt accuracy (while removing negative
// predictions when the model is NMF).
func AblationHostSolveNNLS(seed int64) (*NNLSResult, error) {
	ds, err := genByName("NLANR", Quick, seed)
	if err != nil {
		return nil, err
	}
	const dim, numLM = 8, 20
	lm, hosts := splitHosts(ds.Rows(), numLM, seed)
	dl := submatrix(ds.D, lm, lm)
	model, err := core.FitNMF(dl, dim, seed)
	if err != nil {
		return nil, err
	}
	solveErrs := func(nnls bool) ([]float64, int, error) {
		vecs := make([]core.Vectors, len(hosts))
		for hi, h := range hosts {
			dout := make([]float64, numLM)
			din := make([]float64, numLM)
			for k, l := range lm {
				dout[k] = ds.D.At(h, l)
				din[k] = ds.D.At(l, h)
			}
			var v core.Vectors
			var err error
			if nnls {
				v, err = core.SolveVectorsNNLS(model.X, model.Y, dout, din)
			} else {
				v, err = core.SolveVectors(model.X, model.Y, dout, din)
			}
			if err != nil {
				return nil, 0, err
			}
			vecs[hi] = v
		}
		var errs []float64
		var negatives int
		for i := range hosts {
			for j := range hosts {
				if i == j {
					continue
				}
				est := core.Estimate(vecs[i], vecs[j])
				if est < 0 {
					negatives++
				}
				errs = append(errs, stats.RelativeError(ds.D.At(hosts[i], hosts[j]), est))
			}
		}
		return errs, negatives, nil
	}
	unc, negUnc, err := solveErrs(false)
	if err != nil {
		return nil, fmt.Errorf("ablation nnls: unconstrained: %w", err)
	}
	nn, negNN, err := solveErrs(true)
	if err != nil {
		return nil, fmt.Errorf("ablation nnls: constrained: %w", err)
	}
	if negNN != 0 {
		return nil, fmt.Errorf("ablation nnls: NNLS produced %d negative estimates", negNN)
	}
	return &NNLSResult{
		MedianUnconstrained: stats.Median(unc),
		MedianNNLS:          stats.Median(nn),
		NegativePredictions: negUnc,
	}, nil
}

// KNodesResult is the prediction error when hosts measure only k nodes.
type KNodesResult struct {
	K      int
	Median float64
}

// AblationKNodes sweeps k, the number of landmarks each host measures
// (§5.2): larger k incorporates more measurements and should improve
// accuracy monotonically (up to noise), with diminishing returns.
func AblationKNodes(seed int64, ks []int) ([]KNodesResult, error) {
	ds, err := genByName("NLANR", Quick, seed)
	if err != nil {
		return nil, err
	}
	const dim, numLM = 8, 30
	out := make([]KNodesResult, 0, len(ks))
	for _, k := range ks {
		if k > numLM {
			return nil, fmt.Errorf("ablation k: k=%d > landmarks=%d", k, numLM)
		}
		frac := 1 - float64(k)/float64(numLM)
		med, err := fig7Point(ds.D, numLM, dim, frac, seed)
		if err != nil {
			return nil, fmt.Errorf("ablation k=%d: %w", k, err)
		}
		out = append(out, KNodesResult{K: k, Median: med})
	}
	return out, nil
}

// LandmarkSelResult compares landmark selection policies.
type LandmarkSelResult struct {
	Policy string
	Median float64
}

// AblationLandmarkSelection compares random landmark choice against a
// farthest-point ("spread") heuristic, probing the paper's reliance on
// [21]'s result that random selection is adequate for m >= 20.
func AblationLandmarkSelection(seed int64) ([]LandmarkSelResult, error) {
	ds, err := genByName("NLANR", Quick, seed)
	if err != nil {
		return nil, err
	}
	const dim, numLM = 8, 20
	evalWith := func(lm []int) (float64, error) {
		hosts := complement(ds.Rows(), lm)
		p := problemFromSplit(ds.D, lm, hosts)
		errs, err := runIDES(p, dim, core.SVD, seed, 0)
		if err != nil {
			return 0, err
		}
		return stats.Median(errs), nil
	}

	randLM, _ := splitHosts(ds.Rows(), numLM, seed)
	randMed, err := evalWith(randLM)
	if err != nil {
		return nil, fmt.Errorf("ablation landmarks: random: %w", err)
	}
	spreadMed, err := evalWith(farthestPoint(ds.D, numLM, seed))
	if err != nil {
		return nil, fmt.Errorf("ablation landmarks: spread: %w", err)
	}
	return []LandmarkSelResult{
		{Policy: "random", Median: randMed},
		{Policy: "farthest-point", Median: spreadMed},
	}, nil
}

// farthestPoint greedily picks landmarks maximizing the minimum distance
// to those already chosen.
func farthestPoint(d *mat.Dense, m int, seed int64) []int {
	n := d.Rows()
	rng := rand.New(rand.NewSource(seed))
	chosen := []int{rng.Intn(n)}
	for len(chosen) < m {
		best, bestDist := -1, -1.0
		for cand := 0; cand < n; cand++ {
			minD := -1.0
			taken := false
			for _, c := range chosen {
				if c == cand {
					taken = true
					break
				}
				dist := d.At(cand, c)
				if minD < 0 || dist < minD {
					minD = dist
				}
			}
			if taken {
				continue
			}
			if minD > bestDist {
				best, bestDist = cand, minD
			}
		}
		chosen = append(chosen, best)
	}
	return chosen
}

// ChainResult is the prediction accuracy at one chaining depth.
type ChainResult struct {
	Depth  int // 0 = landmarks only; 1 = hosts placed from depth-0 hosts; ...
	Median float64
}

// AblationHostChaining probes §5.2's host-as-reference relaxation: wave 0
// hosts are placed from landmarks; wave w hosts measure only wave w-1
// hosts. Accuracy should degrade gracefully with depth as placement error
// compounds.
func AblationHostChaining(seed int64, depths int) ([]ChainResult, error) {
	ds, err := genByName("NLANR", Quick, seed)
	if err != nil {
		return nil, err
	}
	const dim, numLM, refsPerWave = 8, 20, 12
	lm, rest := splitHosts(ds.Rows(), numLM, seed)
	dl := submatrix(ds.D, lm, lm)
	model, err := core.FitSVD(dl, dim, seed)
	if err != nil {
		return nil, err
	}

	// Divide remaining hosts into waves.
	waveSize := len(rest) / depths
	if waveSize < 2 {
		return nil, fmt.Errorf("ablation chaining: too few hosts (%d) for %d waves", len(rest), depths)
	}
	rng := rand.New(rand.NewSource(seed))

	// refsOut/refsIn: vectors of the previous wave (starts with landmarks).
	refOut, refIn := model.X, model.Y
	refIdx := lm
	out := make([]ChainResult, 0, depths)
	for w := 0; w < depths; w++ {
		wave := rest[w*waveSize : (w+1)*waveSize]
		waveX := mat.NewDense(len(wave), dim)
		waveY := mat.NewDense(len(wave), dim)
		for hi, h := range wave {
			// Measure refsPerWave references from the previous wave.
			k := refsPerWave
			if k > refOut.Rows() {
				k = refOut.Rows()
			}
			sel := rng.Perm(refOut.Rows())[:k]
			dout := make([]float64, k)
			din := make([]float64, k)
			for t, ri := range sel {
				dout[t] = ds.D.At(h, refIdx[ri])
				din[t] = ds.D.At(refIdx[ri], h)
			}
			v, err := core.SolveVectors(refOut.SelectRows(sel), refIn.SelectRows(sel), dout, din)
			if err != nil {
				return nil, fmt.Errorf("ablation chaining: wave %d: %w", w, err)
			}
			waveX.SetRow(hi, v.Out)
			waveY.SetRow(hi, v.In)
		}
		// Score this wave against itself.
		var errs []float64
		for i := range wave {
			for j := range wave {
				if i == j {
					continue
				}
				est := mat.Dot(waveX.Row(i), waveY.Row(j))
				errs = append(errs, stats.RelativeError(ds.D.At(wave[i], wave[j]), est))
			}
		}
		out = append(out, ChainResult{Depth: w, Median: stats.Median(errs)})
		refOut, refIn, refIdx = waveX, waveY, wave
	}
	return out, nil
}

func problemFromSplit(d *mat.Dense, lm, hosts []int) *predictionProblem {
	dl := submatrix(d, lm, lm)
	out := submatrix(d, hosts, lm)
	in := submatrix(d, lm, hosts).T()
	truth := submatrix(d, hosts, hosts)
	for i := range hosts {
		truth.Set(i, i, -1)
	}
	return &predictionProblem{dl: dl, srcOut: out, srcIn: in, dstOut: out, dstIn: in, truth: truth}
}

func complement(n int, chosen []int) []int {
	in := make([]bool, n)
	for _, c := range chosen {
		in[c] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
