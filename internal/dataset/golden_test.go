package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/topology"
)

// matrixHash is FNV-64a over the IEEE-754 bits of every entry, row-major.
func matrixHash(d *mat.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < d.Rows(); i++ {
		for _, v := range d.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestGeneratorGolden pins the numbers the generators produce at seed 42.
// The hashes were computed before the latency ranges, spike parameters and
// transit count stopped being options (PR 18) and have not been
// regenerated since: if this fails, a generator constant, an RNG draw or
// a float operation moved, and every figure computed from these datasets
// moved with it. Do not update a hash to make it pass.
func TestGeneratorGolden(t *testing.T) {
	gen := func(f func(int64) (*Dataset, error)) func() (*mat.Dense, error) {
		return func() (*mat.Dense, error) {
			ds, err := f(42)
			if err != nil {
				return nil, err
			}
			return ds.D, nil
		}
	}
	for _, tc := range []struct {
		name string
		gen  func() (*mat.Dense, error)
		want uint64
	}{
		{"topology-64", func() (*mat.Dense, error) {
			topo, err := topology.Generate(topology.Config{Seed: 42, NumHosts: 64})
			if err != nil {
				return nil, err
			}
			return topo.Directed(), nil
		}, 0x29875f8972725379},
		{"GNP", gen(GenGNP), 0xaf88509236ed35b5},
		{"NLANR", gen(GenNLANR), 0x51e0250302c57875},
		{"AGNP", gen(GenAGNP), 0xe562fc0fe8efaf49},
		{"PL-RTT", gen(GenPLRTT), 0xf4e774fb142f4885},
		{"P2PSim-small", gen(func(seed int64) (*Dataset, error) { return GenP2PSimSmall(seed, 200) }), 0x6afed3d46d4a2e45},
	} {
		d, err := tc.gen()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := matrixHash(d); got != tc.want {
			t.Errorf("%s: matrix hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
