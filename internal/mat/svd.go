package mat

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// SVDResult holds a (possibly truncated) singular value decomposition
// A ≈ U * diag(S) * Vᵀ, with U m x k and V n x k column-orthonormal and
// S sorted in decreasing order.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// ErrNoConvergence is returned when an iterative decomposition fails to
// converge within its sweep budget.
var ErrNoConvergence = errors.New("mat: iteration did not converge")

const (
	jacobiMaxSweeps = 60
	jacobiEps       = 1e-13
)

// SVD computes the full singular value decomposition of a by the one-sided
// Jacobi method. It is accurate to near machine precision and handles
// rank-deficient input; cost is O(m*n²) per sweep, so prefer TruncatedSVD
// for matrices with more than a few hundred columns when only the leading
// part of the spectrum is needed.
func SVD(a *Dense) (*SVDResult, error) {
	m, n := a.Dims()
	if m >= n {
		return svdTall(a)
	}
	// Work on the transpose and swap the factors: Aᵀ = U S Vᵀ ⇒ A = V S Uᵀ.
	r, err := svdTall(a.T())
	if err != nil {
		return nil, err
	}
	return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
}

// svdTall runs one-sided Jacobi on an m x n matrix with m >= n.
func svdTall(a *Dense) (*SVDResult, error) {
	m, n := a.Dims()
	w := a.Clone() // Columns of w are rotated toward mutual orthogonality.
	v := Identity(n)
	// A column whose norm falls to tiny is numerically zero: rank
	// deficiency leaves one holding rounding noise, which is never
	// orthogonal to anything, so it is not rotated (or Jacobi would cycle)
	// and its U column is completed like an exact zero's.
	var ssq float64
	for _, x := range a.data {
		ssq += x * x
	}
	tiny := jacobiEps * math.Sqrt(ssq)
	converged := false
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if math.Abs(gamma) <= jacobiEps*math.Sqrt(alpha*beta) || gamma == 0 ||
					min(alpha, beta) <= tiny*tiny {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					w.data[i*n+p] = c*wp - s*wq
					w.data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if !rotated {
			converged = true
			break
		}
	}
	if !converged {
		return nil, ErrNoConvergence
	}

	// Extract singular values as column norms; order descending.
	sv := make([]float64, n)
	var smax float64
	for j := 0; j < n; j++ {
		var ssq float64
		for i := 0; i < m; i++ {
			x := w.data[i*n+j]
			ssq += x * x
		}
		sv[j] = math.Sqrt(ssq)
		smax = max(smax, sv[j])
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(sv[y], sv[x]) })

	// U is w with its columns scaled to unit norm, or zeroed where the
	// singular value is negligible; U and V take their columns in order.
	tol := max(smax*1e-14*float64(maxInt(m, n)), tiny)
	for j, s := range sv {
		var inv float64
		if s > tol && s > 0 {
			inv = 1 / s
		}
		for i := 0; i < m; i++ {
			w.data[i*n+j] *= inv
		}
	}
	sOut := make([]float64, n)
	for k, j := range order {
		sOut[k] = sv[j]
	}
	tmp := make([]float64, n)
	for _, f := range []*Dense{w, v} {
		for i := 0; i < f.rows; i++ {
			row := f.Row(i)
			copy(tmp, row)
			for k, j := range order {
				row[k] = tmp[j]
			}
		}
	}
	// Columns with (numerically) zero singular value have no direction from
	// the data; complete U to an orthonormal set so downstream algebra stays
	// valid (e.g. the paper's 4x4 example has S[3] = 0).
	completeOrthonormal(w, sOut, tol)
	return &SVDResult{U: w, S: sOut, V: v}, nil
}

// completeOrthonormal fills the columns of u whose singular values are at or
// below tol with unit vectors orthogonal to all other columns.
func completeOrthonormal(u *Dense, s []float64, tol float64) {
	m, n := u.Dims()
	for k := 0; k < n; k++ {
		if s[k] > tol && s[k] > 0 {
			continue
		}
		// Try canonical basis vectors until one survives orthogonalization.
		for e := 0; e < m; e++ {
			cand := make([]float64, m)
			cand[e] = 1
			for j := 0; j < n; j++ {
				if j == k {
					continue
				}
				var proj float64
				for i := 0; i < m; i++ {
					proj += u.data[i*n+j] * cand[i]
				}
				if proj != 0 {
					for i := 0; i < m; i++ {
						cand[i] -= proj * u.data[i*n+j]
					}
				}
			}
			nrm := Norm2(cand)
			if nrm > 1e-8 {
				inv := 1 / nrm
				for i := 0; i < m; i++ {
					u.data[i*n+k] = cand[i] * inv
				}
				break
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Truncate returns the leading d components of the decomposition.
// If d exceeds the available components the full result is returned.
func (r *SVDResult) Truncate(d int) *SVDResult {
	if d >= len(r.S) {
		return r
	}
	m, _ := r.U.Dims()
	n, _ := r.V.Dims()
	u := NewDense(m, d)
	v := NewDense(n, d)
	for i := 0; i < m; i++ {
		copy(u.Row(i), r.U.Row(i)[:d])
	}
	for i := 0; i < n; i++ {
		copy(v.Row(i), r.V.Row(i)[:d])
	}
	s := make([]float64, d)
	copy(s, r.S[:d])
	return &SVDResult{U: u, S: s, V: v}
}

// Reconstruct returns U * diag(S) * Vᵀ.
func (r *SVDResult) Reconstruct() *Dense {
	m, k := r.U.Dims()
	n, _ := r.V.Dims()
	out := NewDense(m, n)
	for i := 0; i < m; i++ {
		urow := r.U.Row(i)
		orow := out.Row(i)
		for j := 0; j < n; j++ {
			vrow := r.V.Row(j)
			var sum float64
			for t := 0; t < k; t++ {
				sum += urow[t] * r.S[t] * vrow[t]
			}
			orow[j] = sum
		}
	}
	return out
}
