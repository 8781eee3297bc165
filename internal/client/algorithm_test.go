package client

import (
	"context"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// TestBootstrapSolvesByServedAlgorithm: the served model's algorithm
// picks the join's solve. The three landmarks' vectors are nonnegative,
// but at 5 ms to each the unconstrained least squares places the host at
// about (3.36, -4.55) on both sides, which predicts -0.45 to landmark c.
// On an NMF model the join is constrained, so the host's vectors and every
// estimate between it and a landmark are nonnegative (§5.1); on an SVD
// model it is core.SolveVectors over the measured rows, bit for bit.
func TestBootstrapSolvesByServedAlgorithm(t *testing.T) {
	rows := [][]float64{{1, 0}, {3, 1}, {0, 0.1}}
	const rtt = 5 * time.Millisecond
	bootstrap := func(t *testing.T, alg string) (core.Vectors, *wire.Model) {
		t.Helper()
		model := &wire.Model{Dim: 2, Algorithm: alg, Epoch: 1}
		for i, r := range rows {
			model.Landmarks = append(model.Landmarks, wire.LandmarkVec{Addr: string(rune('a' + i)), Out: r, In: r})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c, err := New(Config{
			Self:   "self",
			Server: serveStub(t, model, nil),
			Dialer: &net.Dialer{Timeout: 5 * time.Second},
			Pinger: testutil.StubPinger{RTT: rtt},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		vec, ok := c.Vectors()
		if !ok {
			t.Fatal("no vectors after Bootstrap")
		}
		return vec, model
	}

	t.Run("NMF", func(t *testing.T) {
		vec, model := bootstrap(t, "NMF")
		for i, x := range slices.Concat(vec.Out, vec.In) {
			if x < 0 {
				t.Fatalf("coordinate %d of %+v is negative", i, vec)
			}
		}
		for _, lm := range model.Landmarks {
			to := core.Estimate(vec, core.Vectors{Out: lm.Out, In: lm.In})
			from := core.Estimate(core.Vectors{Out: lm.Out, In: lm.In}, vec)
			if to < 0 || from < 0 {
				t.Fatalf("estimates to/from landmark %s: %v / %v, want >= 0", lm.Addr, to, from)
			}
		}
	})
	t.Run("SVD", func(t *testing.T) {
		vec, _ := bootstrap(t, "SVD")
		ms := float64(rtt) / float64(time.Millisecond)
		d := []float64{ms, ms, ms}
		want, err := core.SolveVectors(mat.FromRows(rows), mat.FromRows(rows), d, d)
		if err != nil {
			t.Fatal(err)
		}
		sameBits := func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}
		if !sameBits(vec.Out, want.Out) || !sameBits(vec.In, want.In) {
			t.Fatalf("joined at %+v, want core.SolveVectors' %+v", vec, want)
		}
		if want.Out[1] >= 0 {
			t.Fatalf("unconstrained solve %v has no negative coordinate: the system no longer tests the constraint", want)
		}
	})
}
