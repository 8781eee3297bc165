package mat

import (
	"math"
	"testing"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At = %v want 42.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("unrelated element modified: %v", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v want 6", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged rows")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowSharesStorage(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	row := m.Row(0)
	row[1] = 99
	if m.At(0, 1) != 99 {
		t.Fatalf("Row must alias matrix storage; At(0,1)=%v", m.At(0, 1))
	}
}

func TestSetRow(t *testing.T) {
	m := NewDense(2, 2)
	m.SetRow(0, []float64{1, 2})
	want := FromRows([][]float64{{1, 2}, {0, 0}})
	if !m.Equal(want, 0) {
		t.Fatalf("got %v want %v", m, want)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape %dx%d want 3x2", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	r := m.SelectRows([]int{2, 0})
	if !r.Equal(FromRows([][]float64{{7, 8, 9}, {1, 2, 3}}), 0) {
		t.Fatalf("SelectRows = %v", r)
	}
	c := m.SelectCols([]int{1})
	if !c.Equal(FromRows([][]float64{{2}, {5}, {8}}), 0) {
		t.Fatalf("SelectCols = %v", c)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestApply(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Apply(func(i, j int, v float64) float64 { return v * 2 })
	if !m.Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Apply result %v", m)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.0001, 2}})
	if a.Equal(b, 1e-6) {
		t.Fatal("Equal should fail at tol 1e-6")
	}
	if !a.Equal(b, 1e-3) {
		t.Fatal("Equal should pass at tol 1e-3")
	}
	c := FromRows([][]float64{{1, 2}, {3, 4}})
	if a.Equal(c, math.Inf(1)) {
		t.Fatal("Equal must reject shape mismatch regardless of tol")
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer expectPanic(t, "out of range")
	m.At(2, 0)
}

func TestNegativeDimsPanics(t *testing.T) {
	defer expectPanic(t, "negative dimension")
	NewDense(-1, 2)
}

func TestStringElides(t *testing.T) {
	m := NewDense(20, 20)
	s := m.String()
	if len(s) == 0 {
		t.Fatal("String should produce output")
	}
}

func expectPanic(t *testing.T, context string) {
	t.Helper()
	if r := recover(); r == nil {
		t.Fatalf("expected panic (%s)", context)
	}
}
