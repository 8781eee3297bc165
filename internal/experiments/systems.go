package experiments

import (
	"fmt"

	"github.com/ides-go/ides/internal/coord"
	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// predictionProblem is the common shape of §6's prediction experiments:
// a landmark matrix, each evaluation host's measured distance vectors to
// and from the landmarks, and the ground-truth distances between the
// evaluation pairs. For square datasets sources == destinations (all
// ordinary hosts); for the GNP/AGNP experiment sources are the 869 probes
// and destinations the 4 held-out GNP hosts.
type predictionProblem struct {
	dl *mat.Dense // m×m landmark distances

	// srcOut[i] = measured distances from source i to each landmark;
	// srcIn[i] = from each landmark to source i.
	srcOut, srcIn *mat.Dense
	// dstOut/dstIn: same for destination hosts. May alias srcOut/srcIn
	// when sources and destinations coincide.
	dstOut, dstIn *mat.Dense

	// truth[i][j] is the true distance from source i to destination j. It
	// is square exactly when sources and destinations coincide, and then
	// its diagonal is not evaluated.
	truth *mat.Dense
}

// squareProblem builds a predictionProblem from a square dataset: the
// given landmarks, and every pair of the given ordinary hosts evaluated.
func squareProblem(d *mat.Dense, lm, hosts []int) *predictionProblem {
	out := submatrix(d, hosts, lm)
	in := submatrix(d, lm, hosts).T()
	return &predictionProblem{
		dl:     submatrix(d, lm, lm),
		srcOut: out, srcIn: in,
		dstOut: out, dstIn: in,
		truth: submatrix(d, hosts, hosts),
	}
}

// score computes the modified relative error for every evaluated pair
// given an estimator over (source index, destination index).
func (p *predictionProblem) score(est func(i, j int) float64) []float64 {
	return stats.RelativeErrors(p.truth.Rows(), p.truth.Cols(), p.truth.At, est)
}

// predictionDim is the model dimension of every §6 prediction experiment.
const predictionDim = 8

// system is one of the four systems §6 compares: run builds its model on
// a problem and returns the prediction error sample.
type system struct {
	name string
	run  func() ([]float64, error)
}

// systems lists the four systems of §6 on one problem, in the paper's
// order: Figure 6 scores each, Table 1 times each.
func systems(p *predictionProblem, seed int64) []system {
	return []system{
		{"IDES/SVD", func() ([]float64, error) { return runIDES(p, predictionDim, core.SVD, seed) }},
		{"IDES/NMF", func() ([]float64, error) { return runIDES(p, predictionDim, core.NMF, seed) }},
		{"ICS", func() ([]float64, error) { return runICS(p, predictionDim) }},
		{"GNP", func() ([]float64, error) { return runGNP(p, predictionDim, seed) }},
	}
}

// runIDES fits the landmark model, batch-places all hosts, and returns the
// prediction error sample.
func runIDES(p *predictionProblem, dim int, alg core.Algorithm, seed int64) ([]float64, error) {
	model, err := core.Fit(p.dl, core.FitOptions{Dim: dim, Algorithm: alg, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("ides/%v: %w", alg, err)
	}
	return placeIDES(p, model)
}

// placeIDES batch-places all hosts of p in a fitted landmark model and
// returns the prediction error sample.
func placeIDES(p *predictionProblem, model *core.Model) ([]float64, error) {
	alg := model.Algorithm
	src, err := model.PlaceAll(p.srcOut, p.srcIn)
	if err != nil {
		return nil, fmt.Errorf("ides/%v: placing sources: %w", alg, err)
	}
	dst := src
	if p.dstOut != p.srcOut {
		if dst, err = model.PlaceAll(p.dstOut, p.dstIn); err != nil {
			return nil, fmt.Errorf("ides/%v: placing destinations: %w", alg, err)
		}
	}
	return p.score(func(i, j int) float64 {
		return mat.Dot(src.X.Row(i), dst.Y.Row(j))
	}), nil
}

// runICS fits the Lipschitz+PCA baseline and returns its prediction error
// sample. Hosts are projected from their (symmetrized) landmark distance
// rows, as the ICS system does.
func runICS(p *predictionProblem, dim int) ([]float64, error) {
	model, _, err := factor.FitLipschitzPCA(symmetrize(p.dl), dim)
	if err != nil {
		return nil, fmt.Errorf("ics: %w", err)
	}
	srcCoords := projectAll(model, p.srcOut, p.srcIn)
	dstCoords := srcCoords
	if p.dstOut != p.srcOut {
		dstCoords = projectAll(model, p.dstOut, p.dstIn)
	}
	return p.score(func(i, j int) float64 {
		return model.Estimate(srcCoords[i], dstCoords[j])
	}), nil
}

// runGNP fits the GNP baseline (Simplex Downhill) and returns its
// prediction error sample.
func runGNP(p *predictionProblem, dim int, seed int64) ([]float64, error) {
	model, err := coord.FitGNP(symmetrize(p.dl), coord.GNPOptions{Dim: dim, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("gnp: %w", err)
	}
	place := func(out, in *mat.Dense) [][]float64 {
		coords := make([][]float64, out.Rows())
		dist := make([]float64, out.Cols())
		for i := range coords {
			orow, irow := out.Row(i), in.Row(i)
			for k := range dist {
				dist[k] = 0.5 * (orow[k] + irow[k])
			}
			coords[i] = model.PlaceHost(dist, seed+int64(i))
		}
		return coords
	}
	srcCoords := place(p.srcOut, p.srcIn)
	dstCoords := srcCoords
	if p.dstOut != p.srcOut {
		dstCoords = place(p.dstOut, p.dstIn)
	}
	return p.score(func(i, j int) float64 {
		return model.Estimate(srcCoords[i], dstCoords[j])
	}), nil
}

// projectAll maps hosts' landmark distance vectors to Lipschitz+PCA
// coordinates, averaging the to- and from- vectors (a Euclidean model
// cannot use them separately).
func projectAll(model *factor.LipschitzPCA, out, in *mat.Dense) [][]float64 {
	coords := make([][]float64, out.Rows())
	row := make([]float64, out.Cols())
	for i := range coords {
		orow, irow := out.Row(i), in.Row(i)
		for k := range row {
			row[k] = 0.5 * (orow[k] + irow[k])
		}
		coords[i] = model.Project(row)
	}
	return coords
}

// symmetrize returns (D + Dᵀ)/2, which Euclidean baselines require.
func symmetrize(d *mat.Dense) *mat.Dense {
	n := d.Rows()
	out := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, 0.5*(d.At(i, j)+d.At(j, i)))
		}
	}
	return out
}
