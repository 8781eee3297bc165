package coord

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// VivaldiOptions configures the Vivaldi spring-relaxation embedding [5,6].
type VivaldiOptions struct {
	// Dim is the coordinate dimensionality. Default 8.
	Dim int
	// Rounds is the number of passes in which every node samples one
	// neighbor. Default 200.
	Rounds int
	// Seed seeds neighbor sampling and initialization.
	Seed int64
	// Height enables the height-vector variant: each node carries a
	// nonnegative height h and distances are ||x_i - x_j|| + h_i + h_j.
	// The Vivaldi paper found this models access-link latency better than
	// a plain Euclidean space; note the height model still cannot express
	// asymmetry or triangle violations beyond the additive terms.
	Height bool
}

// vivaldiCC and vivaldiCE are Vivaldi's tuning constants, the adaptive
// timestep gain and the error-smoothing gain, at the Vivaldi paper's
// values.
const vivaldiCC, vivaldiCE = 0.25, 0.25

func (o VivaldiOptions) withDefaults() VivaldiOptions {
	if o.Dim <= 0 {
		o.Dim = 8
	}
	if o.Rounds <= 0 {
		o.Rounds = 200
	}
	return o
}

// VivaldiModel holds the coordinates and confidence estimates produced by
// the algorithm.
type VivaldiModel struct {
	Coords *mat.Dense
	// Heights holds per-node heights when the height model is enabled;
	// nil otherwise.
	Heights []float64
	// LocalError is each node's smoothed relative error estimate, the
	// quantity Vivaldi uses to weight updates.
	LocalError []float64
}

// FitVivaldi runs centralized Vivaldi over the full symmetric distance
// matrix d: every round each node attracts/repels against one random
// neighbor using the adaptive timestep rule. Vivaldi is not part of the
// paper's quantitative evaluation (its Figure 6 uses GNP and ICS), but it is
// the best-known decentralized embedding; it is included as an extension
// baseline.
func FitVivaldi(d *mat.Dense, opts VivaldiOptions) (*VivaldiModel, error) {
	n, c := d.Dims()
	if n != c {
		panic(fmt.Sprintf("coord: Vivaldi needs a square matrix, got %dx%d", n, c))
	}
	opts = opts.withDefaults()
	if n < 2 {
		return nil, fmt.Errorf("vivaldi: need at least 2 nodes, got %d", n)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	coords := mat.NewDense(n, opts.Dim)
	// Tiny random offsets break the symmetry of the all-at-origin start.
	for i := range coords.Data() {
		coords.Data()[i] = rng.NormFloat64() * 1e-3
	}
	var heights []float64
	if opts.Height {
		heights = make([]float64, n)
		for i := range heights {
			heights[i] = 1 // small positive seed so heights can grow
		}
	}
	localErr := make([]float64, n)
	for i := range localErr {
		localErr[i] = 1
	}

	force := make([]float64, opts.Dim)
	for round := 0; round < opts.Rounds; round++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			rtt := d.At(i, j)
			if rtt <= 0 {
				continue
			}
			xi, xj := coords.Row(i), coords.Row(j)
			eu := euclid(xi, xj)
			dist := eu
			if heights != nil {
				dist += heights[i] + heights[j]
			}
			// Unit vector from j to i; random direction when co-located.
			var norm float64
			for k := range force {
				force[k] = xi[k] - xj[k]
				norm += force[k] * force[k]
			}
			norm = math.Sqrt(norm)
			if norm < 1e-12 {
				for k := range force {
					force[k] = rng.NormFloat64()
				}
				norm = mat.Norm2(force)
			}
			for k := range force {
				force[k] /= norm
			}

			// Weight by relative confidence (Vivaldi eq. w = e_i/(e_i+e_j)).
			w := localErr[i] / (localErr[i] + localErr[j])
			es := math.Abs(dist-rtt) / rtt
			localErr[i] = es*vivaldiCE*w + localErr[i]*(1-vivaldiCE*w)
			delta := vivaldiCC * w
			// Displace along the unit vector by delta * (rtt - dist):
			// stretched springs pull together, compressed push apart.
			step := delta * (rtt - dist)
			if heights == nil {
				for k := range force {
					xi[k] += step * force[k]
				}
				continue
			}
			// Height model: split the displacement between the Euclidean
			// part and the height in proportion to their contribution to
			// the current distance (the p2psim formulation).
			hShare := (heights[i] + heights[j]) / math.Max(dist, 1e-9)
			for k := range force {
				xi[k] += step * force[k] * (1 - hShare)
			}
			heights[i] += step * hShare
			if heights[i] < 0.01 {
				heights[i] = 0.01
			}
		}
	}
	return &VivaldiModel{Coords: coords, Heights: heights, LocalError: localErr}, nil
}

// Estimate returns the modeled distance between nodes i and j.
func (v *VivaldiModel) Estimate(i, j int) float64 {
	d := euclid(v.Coords.Row(i), v.Coords.Row(j))
	if v.Heights != nil {
		d += v.Heights[i] + v.Heights[j]
	}
	return d
}

// ReconstructionErrors scores the embedding on every off-diagonal pair.
func (v *VivaldiModel) ReconstructionErrors(d *mat.Dense) []float64 {
	n := d.Rows()
	return stats.RelativeErrors(n, n, d.At, v.Estimate)
}
