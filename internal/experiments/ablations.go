package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/dataset"
	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// Ablations runs the studies behind the paper's design claims, one table
// each. They always run at Quick scale.
func Ablations(_ Scale, seed int64) ([]Table, error) {
	var out []Table
	for _, run := range []func(int64) (Table, error){
		AblationSVDAlgorithms, AblationNMFIterations, AblationHostSolveNNLS, AblationKNodes,
		AblationLandmarkSelection, AblationHostChaining, AblationMissingData, ExtVivaldi,
	} {
		tab, err := run(seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}

// medianTable starts a one-column table of median prediction or
// reconstruction errors.
func medianTable(title, label string) Table {
	return Table{Title: title, Label: label, Columns: []Column{{"median error", Ratio}}}
}

// AblationSVDAlgorithms justifies the svdExactThreshold design choice: for
// RTT matrices the randomized truncated SVD matches the exact leading
// spectrum to several digits while scaling far better. The deviation is
// the largest relative one over the leading d singular values.
func AblationSVDAlgorithms(seed int64) (Table, error) {
	const dim = 10
	tab := Table{
		Title:   fmt.Sprintf("Ablation: exact Jacobi vs randomized truncated SVD, P2PSim, d=%d", dim),
		Label:   "n",
		Columns: []Column{{"exact", Seconds}, {"approx", Seconds}, {"max spectral deviation", Ratio}},
	}
	for _, n := range []int{60, 120, 240} {
		ds, err := genP2PSimSized(seed, n)
		if err != nil {
			return Table{}, err
		}
		var exact, approx *mat.SVDResult
		exactTime, err := timed(func() (err error) { exact, err = mat.SVD(ds); return err })
		if err != nil {
			return Table{}, fmt.Errorf("ablation svd: exact n=%d: %w", n, err)
		}
		approxTime, err := timed(func() (err error) { approx, err = mat.TruncatedSVD(ds, dim, seed); return err })
		if err != nil {
			return Table{}, fmt.Errorf("ablation svd: approx n=%d: %w", n, err)
		}
		var dev float64
		for i := 0; i < dim; i++ {
			if exact.S[i] > 0 {
				dev = math.Max(dev, math.Abs(exact.S[i]-approx.S[i])/exact.S[i])
			}
		}
		tab.Rows = append(tab.Rows, Row{strconv.Itoa(n), []float64{exactTime, approxTime, dev}})
	}
	return tab, nil
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

// AblationNMFIterations probes the paper's statement that "two hundred
// iterations suffice to converge": the rounds NMF's stopping rule runs on
// each of Fig 6's landmark fits (d=8; median prediction error, Fig 6's
// IDES/NMF row) and on the whole NLANR matrix (d=10; median
// reconstruction error, Fig 3(a)'s NMF cell).
func AblationNMFIterations(seed int64) (Table, error) {
	tab := Table{
		Title:   "Ablation: NMF rounds to convergence",
		Label:   "fit",
		Columns: []Column{{"rounds", Count}, {"median error", Ratio}},
	}
	for _, dsName := range predictionDatasets {
		p, err := fig6Problem(dsName, Quick, seed)
		if err != nil {
			return Table{}, err
		}
		res, err := factor.NMF(p.dl, predictionDim, factor.NMFOptions{Seed: seed})
		if err != nil {
			return Table{}, fmt.Errorf("ablation nmf rounds: %s: %w", dsName, err)
		}
		errs, err := placeIDES(p, &core.Model{X: res.X, Y: res.Y, Algorithm: core.NMF})
		if err != nil {
			return Table{}, fmt.Errorf("ablation nmf rounds: %s: %w", dsName, err)
		}
		label := fmt.Sprintf("%s landmarks, d=%d", dsName, predictionDim)
		tab.Rows = append(tab.Rows, Row{label, []float64{float64(res.Rounds), stats.Median(errs)}})
	}
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim = 10
	res, err := factor.NMF(ds.D, dim, factor.NMFOptions{Seed: seed})
	if err != nil {
		return Table{}, fmt.Errorf("ablation nmf rounds: NLANR: %w", err)
	}
	label := fmt.Sprintf("NLANR matrix, d=%d", dim)
	tab.Rows = append(tab.Rows, Row{label, []float64{float64(res.Rounds), stats.Median(res.ReconstructionErrors(ds.D))}})
	return tab, nil
}

// AblationHostSolveNNLS checks §5.1's claim that nonnegativity-constrained
// host solves neither help nor hurt accuracy (while removing negative
// predictions when the model is NMF).
func AblationHostSolveNNLS(seed int64) (Table, error) {
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim, numLM = 8, 20
	lm, hosts := splitHosts(ds.Rows(), numLM, seed)
	model, err := core.FitNMF(submatrix(ds.D, lm, lm), dim, seed)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		Title:   "Ablation: host solve, unconstrained vs NNLS, NMF model, NLANR",
		Label:   "host solve",
		Columns: []Column{{"median error", Ratio}, {"negative predictions", Count}},
	}
	for _, s := range []struct {
		name  string
		solve func(refOut, refIn *mat.Dense, dout, din []float64) (core.Vectors, error)
	}{{"unconstrained", core.SolveVectors}, {"nnls", core.SolveVectorsNNLS}} {
		vecs := make([]core.Vectors, len(hosts))
		for hi, h := range hosts {
			dout := make([]float64, numLM)
			din := make([]float64, numLM)
			for k, l := range lm {
				dout[k] = ds.D.At(h, l)
				din[k] = ds.D.At(l, h)
			}
			if vecs[hi], err = s.solve(model.X, model.Y, dout, din); err != nil {
				return Table{}, fmt.Errorf("ablation nnls: %s: %w", s.name, err)
			}
		}
		negatives := 0
		errs := pairErrors(ds.D, hosts, func(i, j int) float64 {
			est := core.Estimate(vecs[i], vecs[j])
			if est < 0 {
				negatives++
			}
			return est
		})
		if s.name == "nnls" && negatives != 0 {
			return Table{}, fmt.Errorf("ablation nnls: NNLS produced %d negative estimates", negatives)
		}
		tab.Rows = append(tab.Rows, Row{s.name, []float64{stats.Median(errs), float64(negatives)}})
	}
	return tab, nil
}

// AblationKNodes sweeps k, the number of landmarks each host measures
// (§5.2): larger k incorporates more measurements and should improve
// accuracy monotonically (up to noise), with diminishing returns.
func AblationKNodes(seed int64) (Table, error) {
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim, numLM = 8, 30
	tab := medianTable(fmt.Sprintf("Ablation: k nodes measured per host, %d landmarks, NLANR, d=%d", numLM, dim), "k")
	for _, k := range []int{8, 12, 20, 30} {
		med, _, err := fig7Point(ds.D, numLM, dim, 1-float64(k)/numLM, seed)
		if err != nil {
			return Table{}, fmt.Errorf("ablation k=%d: %w", k, err)
		}
		tab.Rows = append(tab.Rows, Row{strconv.Itoa(k), []float64{med}})
	}
	return tab, nil
}

// AblationLandmarkSelection compares random landmark choice against a
// farthest-point ("spread") heuristic, probing the paper's reliance on
// [21]'s result that random selection is adequate for m >= 20.
func AblationLandmarkSelection(seed int64) (Table, error) {
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim, numLM = 8, 20
	randLM, _ := splitHosts(ds.Rows(), numLM, seed)
	tab := medianTable(fmt.Sprintf("Ablation: landmark selection policy, %d landmarks, NLANR", numLM), "policy")
	for _, policy := range []struct {
		name string
		lm   []int
	}{{"random", randLM}, {"farthest-point", farthestPoint(ds.D, numLM, seed)}} {
		errs, err := runIDES(squareProblem(ds.D, policy.lm, complement(ds.Rows(), policy.lm)), dim, core.SVD, seed)
		if err != nil {
			return Table{}, fmt.Errorf("ablation landmarks: %s: %w", policy.name, err)
		}
		tab.Rows = append(tab.Rows, Row{policy.name, []float64{stats.Median(errs)}})
	}
	return tab, nil
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

// AblationHostChaining probes §5.2's host-as-reference relaxation: wave 0
// hosts are placed from landmarks; wave w hosts measure only wave w-1
// hosts. Accuracy should degrade gracefully with depth as placement error
// compounds. Each wave is scored against itself.
func AblationHostChaining(seed int64) (Table, error) {
	ds, err := dataset.GenNLANR(seed)
	if err != nil {
		return Table{}, err
	}
	const dim, numLM, refsPerWave, depths = 8, 20, 12, 3
	lm, rest := splitHosts(ds.Rows(), numLM, seed)
	model, err := core.FitSVD(submatrix(ds.D, lm, lm), dim, seed)
	if err != nil {
		return Table{}, err
	}
	waveSize := len(rest) / depths
	rng := rand.New(rand.NewSource(seed))
	tab := medianTable("Ablation: host chaining depth (§5.2 relaxation), NLANR", "depth")

	// refOut/refIn: vectors of the previous wave (starts with landmarks).
	refOut, refIn := model.X, model.Y
	refIdx := lm
	for w := 0; w < depths; w++ {
		wave := rest[w*waveSize : (w+1)*waveSize]
		waveX := mat.NewDense(len(wave), dim)
		waveY := mat.NewDense(len(wave), dim)
		for hi, h := range wave {
			k := min(refsPerWave, refOut.Rows())
			sel := rng.Perm(refOut.Rows())[:k]
			dout := make([]float64, k)
			din := make([]float64, k)
			for t, ri := range sel {
				dout[t] = ds.D.At(h, refIdx[ri])
				din[t] = ds.D.At(refIdx[ri], h)
			}
			v, err := core.SolveVectors(refOut.SelectRows(sel), refIn.SelectRows(sel), dout, din)
			if err != nil {
				return Table{}, fmt.Errorf("ablation chaining: wave %d: %w", w, err)
			}
			waveX.SetRow(hi, v.Out)
			waveY.SetRow(hi, v.In)
		}
		errs := pairErrors(ds.D, wave, func(i, j int) float64 { return mat.Dot(waveX.Row(i), waveY.Row(j)) })
		tab.Rows = append(tab.Rows, Row{strconv.Itoa(w), []float64{stats.Median(errs)}})
		refOut, refIn, refIdx = waveX, waveY, wave
	}
	return tab, nil
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
