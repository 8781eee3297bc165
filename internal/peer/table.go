package peer

import (
	"math"
	"math/rand"

	"github.com/ides-go/ides/internal/wire"
)

// table is the bounded address → coordinate-rows map of the gossip
// mode: a Peer's neighbor set and a Rendezvous's directory are both
// one. It owns its row storage — rows arrive as views of a frame buffer
// and are copied in — recycles an evicted entry, storage included, for
// the next insertion, and draws every random choice (eviction, sample)
// from one seeded PRNG, so a table driven in a fixed order is
// bit-identical across runs. Not safe for concurrent use: the owner's
// lock covers every call and every use of what a call returns.
type table struct {
	capacity int
	rng      *rand.Rand
	entries  map[string]*neighbor
	order    []*neighbor // entries in insertion order; rng indexes into it
	free     []*neighbor // evicted entries awaiting reuse
	// picked is sample's result buffer.
	picked []wire.LandmarkVec
	// evictions counts entries evicted to stay within capacity.
	evictions uint64
}

// neighbor is one table entry: the last coordinate rows seen for an
// address and the entry's position in the deterministic iteration order.
type neighbor struct {
	addr string
	// rows is out then in, split at nout; empty until the first
	// coordinates arrive (an address learned without any) and again after
	// the entry is recycled.
	rows []float64
	nout int
	idx  int
}

// out and in return the cached rows, empty while none are known.
func (n *neighbor) out() []float64 { return n.rows[:n.nout] }
func (n *neighbor) in() []float64  { return n.rows[n.nout:] }

func newTable(capacity int, seed int64) *table {
	return &table{
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
		entries:  make(map[string]*neighbor),
	}
}

// finite reports whether v holds no NaN and no infinity. One hostile
// frame must not poison the rows a table hands on, or the rows of a peer
// that steps against them.
func finite(v wire.Floats) bool {
	for i := 0; i < v.Len(); i++ {
		if f := v.At(i); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// observe records an address and, when both are given, its coordinate
// rows, evicting a random entry when the table is full. addr may be a
// view of a frame buffer: only one new to the table is copied to the
// heap, as its key. Empty rows never overwrite cached ones — a sample
// entry without coordinates must not blind an estimator — and an
// observation with a non-finite row is ignored whole. It returns the
// table's own copy of the address, "" when the observation was ignored.
func (t *table) observe(addr []byte, out, in wire.Floats) string {
	if len(addr) == 0 || !finite(out) || !finite(in) {
		return ""
	}
	n := t.entries[string(addr)]
	if n == nil {
		if len(t.order) >= t.capacity {
			t.evict(t.pick())
			t.evictions++
		}
		if last := len(t.free) - 1; last >= 0 {
			n, t.free = t.free[last], t.free[:last]
		} else {
			n = new(neighbor)
		}
		n.addr, n.idx = string(addr), len(t.order)
		t.entries[n.addr] = n
		t.order = append(t.order, n)
	}
	if out.Len() > 0 && in.Len() > 0 {
		if size := out.Len() + in.Len(); cap(n.rows) < size {
			n.rows = make([]float64, size)
		} else {
			n.rows = n.rows[:size]
		}
		n.nout = out.Len()
		out.CopyTo(n.out())
		in.CopyTo(n.in())
	}
	return n.addr
}

// pick draws one entry uniformly; the table must not be empty.
func (t *table) pick() *neighbor { return t.order[t.rng.Intn(len(t.order))] }

// evict removes n by swap-delete, keeping iteration order
// deterministic, and queues it for reuse.
func (t *table) evict(n *neighbor) {
	last := len(t.order) - 1
	t.order[n.idx] = t.order[last]
	t.order[n.idx].idx = n.idx
	t.order = t.order[:last]
	delete(t.entries, n.addr)
	n.addr, n.rows, n.nout = "", n.rows[:0], 0
	t.free = append(t.free, n)
}

// addrs returns the addresses in table order.
func (t *table) addrs() []string {
	addrs := make([]string, len(t.order))
	for i, n := range t.order {
		addrs[i] = n.addr
	}
	return addrs
}

// rows returns the rows cached for addr, empty when there are none.
func (t *table) rows(addr string) (out, in []float64) {
	n := t.entries[addr]
	if n == nil {
		return nil, nil
	}
	return n.out(), n.in()
}

// drop removes addr, reporting whether it was there.
func (t *table) drop(addr string) bool {
	n := t.entries[addr]
	if n != nil {
		t.evict(n)
	}
	return n != nil
}

// sample draws up to k distinct entries (excluding one address) with
// their cached rows. The result aliases the table's buffer and row
// storage: encode it before the next call into the table.
func (t *table) sample(k int, exclude string) []wire.LandmarkVec {
	out := t.picked[:0]
	if len(t.order) == 0 || k <= 0 {
		return out
	}
draw:
	for attempts := 0; len(out) < k && attempts < 2*k; attempts++ {
		n := t.pick()
		if n.addr == exclude {
			continue
		}
		for i := range out {
			if out[i].Addr == n.addr {
				continue draw
			}
		}
		out = append(out, wire.LandmarkVec{Addr: n.addr, Out: n.out(), In: n.in()})
	}
	t.picked = out
	return out
}
