package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/query/knnindex"
	"github.com/ides-go/ides/internal/wire"
)

// oracleAddrs are the addresses the oracle sequence draws from. A record
// packs its address eight bytes to a word, zero-padded, so the list holds
// both sides of every word boundary, addresses that differ only in
// trailing zero bytes, the longest wire address and non-UTF-8 bytes,
// beside enough ordinary hosts to cross the index threshold.
var oracleAddrs = func() []string {
	addrs := []string{
		"", "a", "\x00", "1234567", "12345678", "123456789",
		"\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		strings.Repeat("x", 255), strings.Repeat("x", 254) + "y", "\xff\xfe\x80\x00\xc3",
	}
	for i := range 24 {
		addrs = append(addrs, fmt.Sprintf("host-%06d", i))
	}
	return addrs
}()

// oracle is the directory's contract over a plain map: an entry resolves
// while it is within TTL of its registration and not from an epoch older
// than the directory's.
type oracle struct {
	hosts map[string]oracleEntry
	epoch uint64
	ttl   int64
}

type oracleEntry struct {
	vec   core.Vectors
	at    int64
	epoch uint64
}

func (o *oracle) live(addr string, now int64) (oracleEntry, bool) {
	e, ok := o.hosts[addr]
	return e, ok && now-e.at <= o.ttl && e.epoch >= o.epoch
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzDirectoryOracle drives one sequence of operations, decoded from
// the input, through a Directory (writing through PutEpoch and through
// PutEpochView from a RegisterHost frame) and through oracle, and compares every
// read: GetAt, GetAtBytes, EstimateBatchBytes, Len, RangeEpoch as a set,
// and KNearest and KNearestExact against the oracle's sorted top k. Four
// shards over three dozen addresses make re-registrations, sweeps and
// compactions frequent.
func FuzzDirectoryOracle(f *testing.F) {
	for seed := range int64(8) {
		b := make([]byte, 256+64*seed)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		// Atomic: KNearest may start an index build that reads it.
		var clockVar atomic.Int64
		clockVar.Store(1e9)
		const ttl = 20
		d := New(Config{
			Shards: 4, TTL: ttl, SweepInterval: 1, KNNIndexMinSize: 4,
			Now: func() time.Time { return time.Unix(0, clockVar.Load()) },
		})
		o := &oracle{hosts: map[string]oracleEntry{}, ttl: ttl}
		addr := func() string { return oracleAddrs[next()%len(oracleAddrs)] }
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(next()%16 - 4)
			}
			return v
		}
		var sc BatchScratch
		for step := 0; len(ops) > 0; step++ {
			clock := clockVar.Load()
			switch op := next() % 10; op {
			case 0, 1, 2:
				a, v := addr(), core.Vectors{Out: vec(2 + next()%2), In: vec(2 + next()%2)}
				epoch := max(int(o.epoch)+next()%3-1, 0)
				o.hosts[a] = oracleEntry{core.Vectors{Out: slices.Clone(v.Out), In: slices.Clone(v.In)}, clock, uint64(epoch)}
				// Both paths store the same record, so the path is chosen by
				// step and consumes no input byte: a corpus input decodes
				// to the same sequence whichever path each put takes.
				if step%2 == 0 {
					d.PutEpoch(a, v, uint64(epoch))
				} else { // the leader's path: a view of the RegisterHost frame
					payload := (&wire.RegisterHost{Addr: a, Out: v.Out, In: v.In, Epoch: uint64(epoch)}).Encode(nil)
					reg, err := wire.ParseRegisterHost(payload)
					if err != nil {
						t.Fatal(err)
					}
					d.PutEpochView(reg.Addr, reg.Out, reg.In, reg.Epoch)
					clear(payload)
				}
				clear(v.Out) // the directory copied them
				clear(v.In)
			case 3:
				a := addr()
				d.Remove(a)
				delete(o.hosts, a)
			case 4:
				epoch := max(int(o.epoch)+next()%3-1, 0)
				d.AdvanceEpoch(uint64(epoch))
				o.epoch = max(o.epoch, uint64(epoch))
			case 5:
				clockVar.Add(int64(next() % 16))
			case 6:
				a, epoch := addr(), uint64(max(int(o.epoch)+next()%3-1, 0))
				want, ok := o.live(a, clock)
				ok = ok && want.epoch == epoch
				for name, get := range map[string]func() (core.Vectors, bool){
					"GetAt":      func() (core.Vectors, bool) { return d.GetAt(a, epoch) },
					"GetAtBytes": func() (core.Vectors, bool) { return d.GetAtBytes([]byte(a), epoch) },
				} {
					if got, gok := get(); gok != ok || ok && (!sameBits(got.Out, want.vec.Out) || !sameBits(got.In, want.vec.In)) {
						t.Fatalf("step %d: %s(%q, %d) = %v %v, oracle %v %v", step, name, a, epoch, got, gok, want.vec, ok)
					}
				}
			case 7:
				src := vec(2 + next()%2)
				targets := make([][]byte, next()%16)
				for i := range targets {
					targets[i] = []byte(addr())
				}
				got := NewEngine(d, nil).EstimateBatchBytes(core.Vectors{Out: src, In: src}, targets, &sc)
				for i, tg := range targets {
					e, ok := o.live(string(tg), clock)
					ok = ok && e.epoch == o.epoch && len(e.vec.In) == len(src)
					if got[i].Found != ok || ok && math.Float64bits(got[i].Millis) != math.Float64bits(mat.Dot(e.vec.In, src)) {
						t.Fatalf("step %d: batch target %q = %+v, oracle found %v", step, tg, got[i], ok)
					}
				}
			case 8:
				// Len is exact once every shard's sweep is due: a tick of
				// the clock with a one-nanosecond SweepInterval.
				clock = clockVar.Add(1)
				want := map[string]oracleEntry{}
				for a := range o.hosts {
					if e, ok := o.live(a, clock); ok {
						want[a] = e
					}
				}
				if n := d.Len(); n != len(want) {
					t.Fatalf("step %d: Len = %d, oracle %d", step, n, len(want))
				}
				seen := 0
				d.RangeEpoch(func(a string, v core.Vectors, epoch uint64) bool {
					e, ok := want[a]
					if !ok || e.epoch != epoch || !sameBits(v.Out, e.vec.Out) || !sameBits(v.In, e.vec.In) {
						t.Fatalf("step %d: RangeEpoch yielded %q %v at %d, oracle %v %v", step, a, v, epoch, e, ok)
					}
					seen++
					return true
				})
				if seen != len(want) {
					t.Fatalf("step %d: RangeEpoch yielded %d entries, oracle %d", step, seen, len(want))
				}
			case 9:
				eng := NewEngine(d, nil)
				if next()%2 == 0 {
					eng.BuildKNNIndex()
				}
				src, k, exclude := vec(2+next()%2), 1+next()%6, ""
				if next()%2 == 0 {
					exclude = addr()
				}
				var want []Neighbor
				for a := range o.hosts {
					if e, ok := o.live(a, clock); ok && e.epoch == o.epoch && len(e.vec.In) == len(src) && a != exclude {
						want = append(want, Neighbor{Addr: a, Millis: mat.Dot(src, e.vec.In)})
					}
				}
				slices.SortFunc(want, func(a, b Neighbor) int {
					if knnindex.Less(a, b) {
						return -1
					}
					return 1
				})
				want = want[:min(k, len(want))]
				opts := KNNOptions{Exclude: exclude}
				src2 := core.Vectors{Out: src, In: src}
				for name, got := range map[string][]Neighbor{
					"KNearest":      eng.KNearest(src2, k, opts),
					"KNearestExact": eng.KNearestExact(src2, k, opts),
				} {
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: %s(k=%d, exclude %q) = %v, oracle %v", step, name, k, exclude, got, want)
					}
				}
			}
		}
	})
}
