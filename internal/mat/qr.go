package mat

import "fmt"

// QR holds a Householder QR factorization of an m x n matrix with m >= n:
// A = Q*R with Q m x n having orthonormal columns (thin Q) and R n x n
// upper triangular.
type QR struct {
	qr   *Dense    // Householder vectors below the diagonal, R on and above.
	tau  []float64 // Householder scalar factors.
	m, n int
}

// QRFactor computes the Householder QR factorization of a.
// a is not modified. It panics if a has fewer rows than columns.
func QRFactor(a *Dense) *QR {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("mat: QRFactor requires rows >= cols, got %dx%d", m, n))
	}
	qr := a.Clone()
	tau := make([]float64, n)
	col := make([]float64, m)
	for k := 0; k < n; k++ {
		// Form the Householder vector for column k.
		for i := k; i < m; i++ {
			col[i] = qr.data[i*n+k]
		}
		norm := Norm2(col[k:m])
		if norm == 0 {
			tau[k] = 0
			continue
		}
		alpha := col[k]
		if alpha >= 0 {
			norm = -norm
		}
		// v = x - norm*e1, stored normalized so v[0] = 1.
		v0 := alpha - norm
		for i := k + 1; i < m; i++ {
			qr.data[i*n+k] = col[i] / v0
		}
		tau[k] = -v0 / norm
		qr.data[k*n+k] = norm
		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			s := qr.data[k*n+j]
			for i := k + 1; i < m; i++ {
				s += qr.data[i*n+k] * qr.data[i*n+j]
			}
			s *= tau[k]
			qr.data[k*n+j] -= s
			for i := k + 1; i < m; i++ {
				qr.data[i*n+j] -= s * qr.data[i*n+k]
			}
		}
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}
}

// R returns the n x n upper-triangular factor.
func (f *QR) R() *Dense {
	r := NewDense(f.n, f.n)
	for i := 0; i < f.n; i++ {
		for j := i; j < f.n; j++ {
			r.data[i*f.n+j] = f.qr.data[i*f.n+j]
		}
	}
	return r
}

// Q returns the thin m x n orthonormal factor.
func (f *QR) Q() *Dense {
	q := NewDense(f.m, f.n)
	for j := 0; j < f.n; j++ {
		q.data[j*f.n+j] = 1
	}
	// Apply reflectors in reverse order: Q = H_0 H_1 ... H_{n-1} * I.
	for k := f.n - 1; k >= 0; k-- {
		if f.tau[k] == 0 {
			continue
		}
		for j := 0; j < f.n; j++ {
			s := q.data[k*f.n+j]
			for i := k + 1; i < f.m; i++ {
				s += f.qr.data[i*f.n+k] * q.data[i*f.n+j]
			}
			s *= f.tau[k]
			q.data[k*f.n+j] -= s
			for i := k + 1; i < f.m; i++ {
				q.data[i*f.n+j] -= s * f.qr.data[i*f.n+k]
			}
		}
	}
	return q
}
