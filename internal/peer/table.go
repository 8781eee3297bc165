package peer

import (
	"hash/maphash"
	"math/rand"
	"slices"

	"github.com/ides-go/ides/internal/wire"
)

// table is the bounded address → coordinate-rows map of the gossip
// mode: a Peer's neighbor set and a Rendezvous's directory are both
// one. Its entries sit by value in one slice, in the order every random
// choice indexes into, behind an open-addressed index of (hash,
// position) slots: linear probing, at most half full, doubled before it
// would be more, and emptied by backward-shift deletion, so no lookup,
// insertion or removal touches a Go map. Addresses hash under a
// per-table maphash seed, so no announcer can aim addresses at one probe
// run of the rendezvous's 65,536; the seed moves only the index's
// layout, which decides nothing. An entry leaves by having the last one
// moved into its place, and the element vacated past the slice's end
// keeps its row storage for the next insertion. Rows arrive as views of
// a frame buffer and are copied in, and every random choice (eviction,
// sample) draws from one seeded PRNG, so a table driven in a fixed order
// is bit-identical across runs. Not safe for concurrent use: the owner's
// lock covers every call and every use of what a call returns, and no
// pointer into the entry slice outlives it.
type table struct {
	capacity int
	rng      *rand.Rand
	seed     maphash.Seed
	entries  []neighbor // in table order; rng indexes into it
	index    []slot     // a power of two long, at most half full
	// picked is sample's result buffer.
	picked []wire.LandmarkVec
	// evictions counts entries evicted to stay within capacity.
	evictions uint64
}

// slot is one cell of a table's index: the high half of an entry's
// address hash, which is also where its probe run starts, and the
// entry's position plus one (0 = empty).
type slot struct{ tag, ref uint32 }

// neighbor is one table entry: an address, its index tag, and the last
// coordinate rows seen for it.
type neighbor struct {
	addr string
	tag  uint32
	// rows is out then in, split at nout; empty until the first
	// coordinates arrive (an address learned without any) and again after
	// the entry's storage is recycled.
	rows []float64
	nout int
}

// out and in return the cached rows, empty while none are known.
func (n *neighbor) out() []float64 { return n.rows[:n.nout] }
func (n *neighbor) in() []float64  { return n.rows[n.nout:] }

func newTable(capacity int, seed int64) *table {
	return &table{
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
		seed:     maphash.MakeSeed(),
		index:    make([]slot, 8),
	}
}

// addrKey is an address as a caller holds it: the table's own string,
// or bytes still in a frame buffer. maphash hashes both alike.
type addrKey interface{ string | []byte }

// find returns addr's tag and the index position of its slot, -1 when
// addr is not in the table.
func find[K addrKey](t *table, addr K) (uint32, int) {
	var h uint64
	switch a := any(addr).(type) {
	case string:
		h = maphash.String(t.seed, a)
	case []byte:
		h = maphash.Bytes(t.seed, a)
	}
	tag, m := uint32(h>>32), len(t.index)-1
	for p := int(tag); ; p++ {
		s := t.index[p&m]
		if s.ref == 0 {
			return tag, -1
		}
		if s.tag == tag && t.entries[s.ref-1].addr == string(addr) {
			return tag, p & m
		}
	}
}

// slotOf returns the index position of the entry at position i.
func (t *table) slotOf(i int) int {
	m := len(t.index) - 1
	p := int(t.entries[i].tag)
	for t.index[p&m].ref != uint32(i+1) {
		p++
	}
	return p & m
}

// place puts s in the first empty slot of its probe run.
func (t *table) place(s slot) {
	p, m := int(s.tag), len(t.index)-1
	for t.index[p&m].ref != 0 {
		p++
	}
	t.index[p&m] = s
}

// observe records an address and, when both are given, its coordinate
// rows, evicting a random entry when the table is full. addr may be a
// view of a frame buffer: only one new to the table is copied to the
// heap, as its key. Empty rows never overwrite cached ones — a sample
// entry without coordinates must not blind an estimator — and an
// observation with a non-finite row is ignored whole. It returns the
// table's own copy of the address, "" when the observation was ignored.
func (t *table) observe(addr []byte, out, in wire.Floats) string {
	if len(addr) == 0 || !out.Finite() || !in.Finite() {
		return ""
	}
	tag, p := find(t, addr)
	var n *neighbor
	if p >= 0 {
		n = &t.entries[t.index[p].ref-1]
	} else {
		if len(t.entries) >= t.capacity {
			t.remove(t.pick())
			t.evictions++
		}
		n = t.insert(string(addr), tag)
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

// insert appends an entry for addr, on the storage of the last one
// removed when there is one, and indexes it.
func (t *table) insert(addr string, tag uint32) *neighbor {
	if 2*(len(t.entries)+1) > len(t.index) {
		old := t.index
		t.index = make([]slot, 2*len(old))
		for _, s := range old {
			if s.ref != 0 {
				t.place(s)
			}
		}
	}
	i := len(t.entries)
	t.entries = slices.Grow(t.entries, 1)[:i+1]
	n := &t.entries[i]
	n.addr, n.tag = addr, tag
	t.place(slot{tag, uint32(i + 1)})
	return n
}

// pick draws one entry's position uniformly; the table must not be
// empty.
func (t *table) pick() int { return t.rng.Intn(len(t.entries)) }

// remove deletes the entry at position i. Its slot leaves the index by
// backward shift: each later slot of the run moves back unless its home
// lies within (hole, slot]. The last entry then moves into position i,
// which keeps the order deterministic, and the vacated element keeps
// its row storage for reuse.
func (t *table) remove(i int) {
	p, m := t.slotOf(i), len(t.index)-1
	for q := (p + 1) & m; t.index[q].ref != 0; q = (q + 1) & m {
		if (q-int(t.index[q].tag))&m >= (q-p)&m {
			t.index[p], p = t.index[q], q
		}
	}
	t.index[p] = slot{}
	last, rows := len(t.entries)-1, t.entries[i].rows[:0]
	if i != last {
		t.index[t.slotOf(last)].ref = uint32(i + 1)
		t.entries[i] = t.entries[last]
	}
	t.entries[last] = neighbor{rows: rows}
	t.entries = t.entries[:last]
}

// addrs returns the addresses in table order.
func (t *table) addrs() []string {
	addrs := make([]string, len(t.entries))
	for i := range t.entries {
		addrs[i] = t.entries[i].addr
	}
	return addrs
}

// rows returns the rows cached for addr, empty when there are none.
func (t *table) rows(addr string) (out, in []float64) {
	_, p := find(t, addr)
	if p < 0 {
		return nil, nil
	}
	n := &t.entries[t.index[p].ref-1]
	return n.out(), n.in()
}

// drop removes addr, reporting whether it was there.
func (t *table) drop(addr string) bool {
	_, p := find(t, addr)
	if p >= 0 {
		t.remove(int(t.index[p].ref - 1))
	}
	return p >= 0
}

// sample draws up to k distinct entries (excluding one address) with
// their cached rows. The result aliases the table's buffer and row
// storage: encode it before the next call into the table.
func (t *table) sample(k int, exclude string) []wire.LandmarkVec {
	out := t.picked[:0]
	if len(t.entries) == 0 || k <= 0 {
		return out
	}
draw:
	for attempts := 0; len(out) < k && attempts < 2*k; attempts++ {
		n := &t.entries[t.pick()]
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
