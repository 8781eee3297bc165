package experiments

import (
	"fmt"
	"math/rand"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// Fig7 reproduces Figure 7 on NLANR (d=8) or P2PSim (d=10) with IDES/SVD:
// each ordinary host independently loses a random fraction of the
// landmarks and solves its vectors from the survivors (Eqs. 15–16). A row
// is one unobserved fraction; each landmark count has two columns, the
// placement the service uses (core.SolveVectors) and the paper's exact
// closed form (core.SolveVectorsExact), both from the same observations.
//
// Paper's qualitative result: with 20 landmarks (close to the model
// dimension) accuracy degrades quickly as the unobserved fraction grows;
// with 50 landmarks, losing 40% of them barely moves the median error.
// The exact column also spikes wherever a host observes exactly d
// landmarks, where its reference matrix is square and nearly singular;
// the service's placement damps that direction and degrades monotonically.
func Fig7(dsName string, scale Scale, seed int64) (Table, error) {
	fig, err := panel("7", dsName, "NLANR", "P2PSim")
	if err != nil {
		return Table{}, err
	}
	dim := 8
	if dsName == "P2PSim" {
		dim = 10
	}
	ds, err := genByName(dsName, scale, seed)
	if err != nil {
		return Table{}, fmt.Errorf("fig7: %w", err)
	}
	landmarks := []int{20, 50}
	tab := Table{
		Title: fig + ": median prediction error vs unobserved landmark fraction, " + dsName + ", IDES/SVD",
		Label: "fraction",
	}
	for _, numLM := range landmarks {
		tab.Columns = append(tab.Columns,
			Column{fmt.Sprintf("%d landmarks", numLM), Ratio},
			Column{fmt.Sprintf("%d landmarks (paper)", numLM), Ratio})
	}
	for _, f := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
		row := Row{Label: fmt.Sprintf("%.1f", f)}
		for _, numLM := range landmarks {
			med, paper, err := fig7Point(ds.D, numLM, dim, f, seed)
			if err != nil {
				return Table{}, fmt.Errorf("fig7: m=%d f=%.1f: %w", numLM, f, err)
			}
			row.Values = append(row.Values, med, paper)
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// fig7Point runs one (landmark count, unobserved fraction) cell: fit the
// landmark model, give every ordinary host an independent random subset of
// observed landmarks, place it from that subset both with SolveVectors and
// with SolveVectorsExact, and return each placement's median prediction
// error over all ordinary pairs. Its random draws depend only on the seed
// and the cell, so cells may run in any order.
func fig7Point(d *mat.Dense, numLM, dim int, unobserved float64, seed int64) (med, paper float64, err error) {
	lm, hosts := splitHosts(d.Rows(), numLM, seed)
	dl := submatrix(d, lm, lm)
	model, err := core.FitSVD(dl, dim, seed)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed + int64(1e6*unobserved)))
	observe := numLM - int(unobserved*float64(numLM)+0.5)
	if observe < 1 {
		observe = 1
	}

	solvers := [2]func(refOut, refIn *mat.Dense, dout, din []float64) (core.Vectors, error){
		core.SolveVectors, core.SolveVectorsExact,
	}
	var placeX, placeY [len(solvers)]*mat.Dense
	for s := range solvers {
		placeX[s] = mat.NewDense(len(hosts), model.Dim())
		placeY[s] = mat.NewDense(len(hosts), model.Dim())
	}
	for hi, h := range hosts {
		idx := rng.Perm(numLM)[:observe]
		dout := make([]float64, observe)
		din := make([]float64, observe)
		for k, li := range idx {
			dout[k] = d.At(h, lm[li])
			din[k] = d.At(lm[li], h)
		}
		// Solve directly, not through SolveHostSubset, so the curves extend
		// past the k >= d boundary exactly as the paper's figure does.
		refOut, refIn := model.X.SelectRows(idx), model.Y.SelectRows(idx)
		for s, solve := range solvers {
			vec, err := solve(refOut, refIn, dout, din)
			if err != nil {
				return 0, 0, err
			}
			placeX[s].SetRow(hi, vec.Out)
			placeY[s].SetRow(hi, vec.In)
		}
	}
	var meds [len(solvers)]float64
	for s := range solvers {
		meds[s] = stats.Median(pairErrors(d, hosts, func(i, j int) float64 {
			return mat.Dot(placeX[s].Row(i), placeY[s].Row(j))
		}))
	}
	return meds[0], meds[1], nil
}
