package factor

import (
	"fmt"
	"math"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// LipschitzPCA is the coordinate model used by the ICS [12] and Virtual
// Landmark [20] systems (§2.1): each host is first given a Lipschitz
// embedding — its vector of distances to the m landmarks — which PCA then
// projects onto the d directions of maximum variance. A global linear
// calibration rescales embedded Euclidean distances to the distance units
// of the data.
//
// This is the paper's primary "network embedding" baseline: it is fast like
// IDES, but being a Euclidean model it cannot express asymmetry or triangle
// -inequality violations, which is exactly what Figures 3 and 6 probe.
type LipschitzPCA struct {
	mean  []float64  // column means of the landmark Lipschitz rows
	basis *mat.Dense // m x d principal directions
	scale float64    // linear calibration factor
	d     int
}

// FitLipschitzPCA builds the model from the m x m landmark distance matrix
// and returns it together with the landmark coordinates (m x d).
func FitLipschitzPCA(dl *mat.Dense, dim int) (*LipschitzPCA, *mat.Dense, error) {
	m, n := dl.Dims()
	if m != n {
		panic(fmt.Sprintf("factor: Lipschitz+PCA needs a square landmark matrix, got %dx%d", m, n))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("factor: dimension %d must be positive", dim))
	}
	if dim > m {
		dim = m
	}
	// Center the Lipschitz rows.
	mean := make([]float64, m)
	for i := 0; i < m; i++ {
		row := dl.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(m)
	}
	centered := mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		src := dl.Row(i)
		dst := centered.Row(i)
		for j := range src {
			dst[j] = src[j] - mean[j]
		}
	}
	// Principal directions = leading right singular vectors. Large landmark
	// sets take the randomized path, exactly as SVDFactor does.
	var (
		dec *mat.SVDResult
		err error
	)
	if m <= svdExactThreshold {
		dec, err = mat.SVD(centered)
	} else {
		dec, err = mat.TruncatedSVD(centered, dim, 1)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lipschitz pca: %w", err)
	}
	basis := mat.NewDense(m, dim)
	for i := 0; i < m; i++ {
		copy(basis.Row(i), dec.V.Row(i)[:dim])
	}
	model := &LipschitzPCA{mean: mean, basis: basis, scale: 1, d: dim}
	coords := mat.Mul(centered, basis)
	model.calibrate(dl, coords)
	return model, coords, nil
}

// calibrate chooses the least-squares linear scale α between embedded
// Euclidean distances and true distances over the landmark pairs.
func (l *LipschitzPCA) calibrate(dl, coords *mat.Dense) {
	m := dl.Rows()
	var num, den float64
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			e := euclid(coords.Row(i), coords.Row(j))
			num += dl.At(i, j) * e
			den += e * e
		}
	}
	if den > 0 {
		l.scale = num / den
	}
}

// Dim returns the embedding dimensionality.
func (l *LipschitzPCA) Dim() int { return l.d }

// Project maps a host's Lipschitz row (its distances to the m landmarks)
// to d-dimensional coordinates.
func (l *LipschitzPCA) Project(distToLandmarks []float64) []float64 {
	if len(distToLandmarks) != len(l.mean) {
		panic(fmt.Sprintf("factor: Lipschitz row length %d != landmark count %d", len(distToLandmarks), len(l.mean)))
	}
	centered := make([]float64, len(l.mean))
	for j, v := range distToLandmarks {
		centered[j] = v - l.mean[j]
	}
	return mat.MulVecT(l.basis, centered)
}

// Estimate returns the calibrated Euclidean distance between two coordinate
// vectors.
func (l *LipschitzPCA) Estimate(a, b []float64) float64 {
	return l.scale * euclid(a, b)
}

func euclid(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ReconstructionErrors scores the model on every off-diagonal pair of the
// square matrix d, whose rows must be the Lipschitz vectors used in
// fitting (i.e. d is the landmark matrix itself).
func (l *LipschitzPCA) ReconstructionErrors(d *mat.Dense) []float64 {
	m := d.Rows()
	coords := make([][]float64, m)
	for i := 0; i < m; i++ {
		coords[i] = l.Project(d.Row(i))
	}
	return stats.RelativeErrors(m, m, d.At, func(i, j int) float64 { return l.Estimate(coords[i], coords[j]) })
}
