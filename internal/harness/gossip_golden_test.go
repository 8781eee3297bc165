package harness

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestGossipTrajectoryGolden pins the gossip trajectory itself, not
// just its repeatability: TestGossipDeterministicSameSeed compares two
// runs of the same code, so a change that reorders an RNG draw or a
// floating-point operation on the exchange path passes it. The hashes
// below are FNV-64a over the IEEE-754 bits of every coordinate of every
// peer after the given rounds, generated at the commit before the
// exchange path was rebuilt around zero-copy views and table-owned row
// storage (PR 16); any edit to wire, peer, transport or simnet that
// moves a single bit of any coordinate fails here.
//
// The one failed round is part of the golden: peer-0's first round finds
// the rendezvous directory still empty.
//
// The wide-sample row gossips more entries per exchange than the
// neighbour table's common case, so the sampler's scratch has to grow
// past its steady size and every sampled row rides the views.
func TestGossipTrajectoryGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    GossipConfig
		rounds int
		want   uint64
		failed int
	}{
		{"default", GossipConfig{NumPeers: 64, Seed: 20040101}, 30, 0x7e48749a11ea37c0, 1},
		{"wide-sample", GossipConfig{NumPeers: 64, Seed: 20040101, MaxNeighbors: 48, SampleSize: 40}, 30, 0x9b6f5588cc4ed680, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGossip(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			failed := 0
			for r := 0; r < tc.rounds; r++ {
				f, err := g.GossipRound(ctx)
				if err != nil {
					t.Fatal(err)
				}
				failed += f
			}
			h := fnv.New64a()
			var b [8]byte
			for _, row := range g.Coordinates() {
				for _, v := range row {
					binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := h.Sum64(); got != tc.want || failed != tc.failed {
				t.Fatalf("trajectory hash %#016x with %d failed rounds, want %#016x with %d",
					got, failed, tc.want, tc.failed)
			}
		})
	}
}
