package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/query/knnindex"
)

// TestConcurrentStress hammers one directory + engine from many
// goroutines — registering, expiring (via a racing fake clock), removing,
// and querying — and checks invariants rather than exact values. Run
// with -race; that is the point of the test.
func TestConcurrentStress(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Unix(1e6, 0).UnixNano())
	d := New(Config{
		Shards:        8,
		TTL:           50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
		Now:           func() time.Time { return time.Unix(0, clock.Load()) },
	})
	e := NewEngine(d, nil)

	const (
		writers  = 4
		queriers = 4
		hosts    = 256
		iters    = 400
	)
	addr := func(i int) string { return fmt.Sprintf("h%03d", i%hosts) }
	vecFor := func(i int) core.Vectors {
		f := float64(i%hosts) + 1
		return core.Vectors{Out: []float64{f, 1}, In: []float64{f, 1}}
	}
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := w*iters + i
				switch n % 8 {
				case 7:
					d.Remove(addr(n))
				default:
					d.Put(addr(n), vecFor(n))
				}
				// Advance the clock so entries age and sweeps trigger
				// while other goroutines read.
				clock.Add(int64(time.Millisecond))
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			targets := make([]string, 32)
			for i := range targets {
				targets[i] = addr(q*31 + i)
			}
			for i := 0; i < iters; i++ {
				if v, ok := d.Get(addr(i)); ok && len(v.Out) != 2 {
					t.Errorf("Get returned malformed vectors: %+v", v)
					return
				}
				res := e.EstimateBatch(src, targets)
				if len(res) != len(targets) {
					t.Errorf("EstimateBatch returned %d of %d", len(res), len(targets))
					return
				}
				nb := e.KNearest(src, 5, KNNOptions{})
				for j := 1; j < len(nb); j++ {
					if knnindex.Less(nb[j], nb[j-1]) {
						t.Error("KNearest results out of order")
						return
					}
				}
				if n := d.Len(); n < 0 || n > hosts {
					t.Errorf("Len = %d outside [0,%d]", n, hosts)
					return
				}
			}
		}(q)
	}
	wg.Wait()

	// Quiesce: with the clock frozen past every TTL, the directory must
	// converge to empty.
	clock.Add(int64(time.Hour))
	if n := d.Len(); n != 0 {
		t.Fatalf("directory did not drain after TTL: Len = %d", n)
	}
}

// TestBatchNeverMixesEpochs runs the grouped lookup — one read-lock per
// shard, held across many map reads — against a writer that advances the
// model epoch and re-registers, removes and re-adds every host, and
// checks the invariant the engine's epoch pin exists for: every estimate
// in one reply was solved against the generation the engine was built
// at. Each host's vector carries its registration epoch, so a reply that
// mixed generations would show it in the values. Run with -race.
func TestBatchNeverMixesEpochs(t *testing.T) {
	const (
		hosts    = 512
		epochs   = 40
		queriers = 4
	)
	d := New(Config{Shards: 4})
	addrs := make([]string, hosts)
	views := make([][]byte, hosts)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("h%03d", i)
		views[i] = []byte(addrs[i])
	}
	// est(src → host registered at epoch E) = E exactly.
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	register := func(epoch uint64) {
		for i, a := range addrs {
			d.PutEpoch(a, core.Vectors{Out: []float64{float64(epoch), 1}, In: []float64{float64(epoch), float64(i)}}, epoch)
		}
	}
	d.AdvanceEpoch(1)
	register(1)

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for epoch := uint64(2); epoch <= epochs; epoch++ {
			d.AdvanceEpoch(epoch)
			register(epoch)
			for i := 0; i < hosts; i += 7 {
				d.Remove(addrs[i])
			}
		}
	}()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var sc BatchScratch
			for found := 0; !done.Load() || found == 0; {
				e := NewEngine(d, nil)
				var res []Estimate
				if q%2 == 0 {
					res = e.EstimateBatch(src, addrs)
				} else {
					res = e.EstimateBatchBytes(src, views, &sc)
				}
				found = 0
				for i, r := range res {
					if !r.Found {
						continue
					}
					found++
					if r.Millis != float64(e.epoch) {
						t.Errorf("engine pinned to epoch %d served %s from epoch %v", e.epoch, addrs[i], r.Millis)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
}

// TestHandedOutRowsNeverRewritten holds the rows GetAt, a batch gather and
// RangeEpoch hand out, then re-registers, removes, advances the epoch,
// sweeps and compacts under them while readers keep reading them: every
// held row must keep its bits, and -race must see no write to one.
func TestHandedOutRowsNeverRewritten(t *testing.T) {
	const n = 64
	d := New(Config{Shards: 2})
	d.AdvanceEpoch(1)
	addr := func(i int) string { return fmt.Sprintf("host-%03d", i) }
	vecFor := func(i, gen int) core.Vectors {
		f := float64(gen*1000 + i)
		return core.Vectors{Out: []float64{f, f + 0.25, f + 0.5}, In: []float64{-f, -f - 0.25, -f - 0.5}}
	}
	for i := range n {
		d.PutEpoch(addr(i), vecFor(i, 0), 1)
	}

	type held struct{ row, want []float64 }
	var holds []held
	hold := func(rows ...[]float64) {
		for _, r := range rows {
			holds = append(holds, held{r, append([]float64(nil), r...)})
		}
	}
	targets := make([][]byte, n)
	for i := range n {
		v, _ := d.GetAt(addr(i), 1)
		hold(v.In, v.Out)
		targets[i] = []byte(addr(i))
	}
	var sc BatchScratch
	NewEngine(d, nil).EstimateBatchBytes(vecFor(0, 0), targets, &sc)
	hold(sc.rows[:n]...)
	d.RangeEpoch(func(_ string, v core.Vectors, _ uint64) bool {
		hold(v.In, v.Out)
		return true
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range holds {
					if !sameBits(h.row, h.want) {
						t.Errorf("held row rewritten: %v, was %v", h.row, h.want)
						return
					}
				}
				d.GetAt(addr(r), 1)
			}
		}()
	}
	before := d.compactions.Load()
	for gen := 1; gen <= 3; gen++ {
		for i := range n {
			d.PutEpoch(addr(i), vecFor(i, gen), 1)
		}
	}
	for i := 0; i < n; i += 2 {
		d.Remove(addr(i))
	}
	d.AdvanceEpoch(2)
	d.Len()
	for i := range n {
		d.PutEpoch(addr(i), vecFor(i, 9), 2)
	}
	d.Len()
	close(stop)
	wg.Wait()
	if d.compactions.Load() == before {
		t.Fatal("no compaction ran under the held rows")
	}
	for _, h := range holds {
		if !sameBits(h.row, h.want) {
			t.Fatalf("held row rewritten: %v, was %v", h.row, h.want)
		}
	}
}
