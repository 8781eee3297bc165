package query

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
)

// TestEstimateBatchMatchesPerTargetLookup is the differential test of the
// batch core: over random directories holding every kind of entry a
// lookup has a rule for, EstimateBatch — through the string entry and
// the byte-view entry — must equal a per-target Lookup followed by
// mat.Dot, bit for bit, with equal Found flags. The grouped lookup
// shares no code with the single-address one beyond the entry
// predicates, so agreement here is what lets the server answer batches
// through it.
func TestEstimateBatchMatchesPerTargetLookup(t *testing.T) {
	const (
		dim     = 4
		ttl     = time.Minute
		epoch   = 5
		hosts   = 600
		batches = 20
	)
	for _, shards := range []int{1, 16, 256} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			var clock atomic.Int64
			clock.Store(time.Unix(1e6, 0).UnixNano())
			d := New(Config{Shards: shards, TTL: ttl, Now: func() time.Time { return time.Unix(0, clock.Load()) }})
			d.AdvanceEpoch(epoch)
			randVec := func(n int) core.Vectors {
				v := core.Vectors{Out: make([]float64, n), In: make([]float64, n)}
				for i := 0; i < n; i++ {
					v.Out[i], v.In[i] = rng.NormFloat64()*30, rng.NormFloat64()*30
				}
				return v
			}

			// Landmarks resolve only through the fallback; one of them also
			// has an expired directory entry, which must not shadow it.
			landmarks := map[string]core.Vectors{}
			var names []string
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("lm-%d", i)
				landmarks[name] = randVec(dim)
				names = append(names, name)
			}
			d.PutEpoch("lm-0", randVec(dim), epoch)

			// Entries that will be past TTL by query time.
			for i := 0; i < hosts/10; i++ {
				name := fmt.Sprintf("expired-%03d", i)
				d.PutEpoch(name, randVec(dim), epoch)
				names = append(names, name)
			}
			clock.Add(int64(2 * ttl))

			for i := 0; i < hosts; i++ {
				name := fmt.Sprintf("host-%04d", i)
				names = append(names, name)
				switch i % 10 {
				case 0: // solved against a generation the directory has left
					d.PutEpoch(name, randVec(dim), epoch-2)
				case 1: // racing in for a generation the engine is not pinned to
					d.PutEpoch(name, randVec(dim), epoch+1)
				case 2: // epoch 0: registered before the first fit
					d.Put(name, randVec(dim))
				case 3: // wrong dimension: a directory hit that reads not found
					d.PutEpoch(name, randVec(dim-1), epoch)
				default:
					d.PutEpoch(name, randVec(dim), epoch)
				}
			}
			for i := 0; i < 20; i++ {
				names = append(names, fmt.Sprintf("unknown-%02d", i))
			}

			eng := NewEngine(d, func(addr string) (core.Vectors, bool) {
				v, ok := landmarks[addr]
				return v, ok
			})
			var sc BatchScratch // reused dirty across batches on purpose
			counts := map[string]int{}
			for b := 0; b < batches; b++ {
				src := randVec(dim)
				n := rng.Intn(300)
				targets := make([]string, n)
				views := make([][]byte, n)
				for i := range targets {
					targets[i] = names[rng.Intn(len(names))]
					if i > 0 && rng.Intn(8) == 0 {
						targets[i] = targets[rng.Intn(i)] // duplicate
					}
					views[i] = []byte(targets[i])
				}
				// Batches first: the reference's GetAt reclaims the dead
				// entries it touches, the grouped lookup must already have
				// read them as absent.
				got := eng.EstimateBatch(src, targets)
				gotBytes := append([]Estimate(nil), eng.EstimateBatchBytes(src, views, &sc)...)
				want := make([]Estimate, n)
				for i, addr := range targets {
					if v, ok := eng.Lookup(addr); ok && len(v.In) == dim {
						want[i] = Estimate{Millis: mat.Dot(v.In, src.Out), Found: true}
						counts[addr[:2]]++
					}
				}
				again := eng.EstimateBatch(src, targets) // after the reclamations
				for name, res := range map[string][]Estimate{"string": got, "bytes": gotBytes, "string, second pass": again} {
					if len(res) != n {
						t.Fatalf("batch %d (%s): %d results for %d targets", b, name, len(res), n)
					}
					for i := range want {
						if res[i].Found != want[i].Found || math.Float64bits(res[i].Millis) != math.Float64bits(want[i].Millis) {
							t.Fatalf("batch %d (%s) target %d %q: got %+v, per-target lookup says %+v",
								b, name, i, targets[i], res[i], want[i])
						}
					}
				}
			}
			// The comparison is vacuous if a kind never resolved.
			if counts["ho"] == 0 || counts["lm"] == 0 {
				t.Fatalf("resolved hosts/landmarks %d/%d: the test directory is not exercising both", counts["ho"], counts["lm"])
			}
			if counts["ex"] != 0 || counts["un"] != 0 {
				t.Fatalf("expired or unknown addresses resolved: %v", counts)
			}
		})
	}
}
