package peer

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// floats encodes a row the way a frame carries it.
func floats(v ...float64) wire.Floats {
	var b wire.Floats
	for _, f := range v {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// tableInvariants fails t when tb breaks what every caller relies on:
// at most capacity entries; an index a power of two long, at most half
// full, whose occupied slots name every entry exactly once, under the
// entry's tag, where a probe from that tag's home reaches them; distinct
// non-empty addresses, each found where it is; and no non-finite row
// anywhere.
func tableInvariants(t *testing.T, tb *table) {
	t.Helper()
	n, m := len(tb.entries), len(tb.index)-1
	if n > tb.capacity || 2*n > len(tb.index) || len(tb.index)&m != 0 {
		t.Fatalf("table holds %d entries at capacity %d behind an index of %d slots", n, tb.capacity, len(tb.index))
	}
	indexed := 0
	for p, s := range tb.index {
		if s.ref == 0 {
			continue
		}
		indexed++
		if i := int(s.ref) - 1; i >= n || tb.entries[i].tag != s.tag {
			t.Fatalf("slot %d names position %d of %d under tag %#x", p, i, n, s.tag)
		}
		for q := int(s.tag) & m; q != p; q = (q + 1) & m {
			if tb.index[q].ref == 0 {
				t.Fatalf("slot %d lies past the empty slot %d of its probe run", p, q)
			}
		}
	}
	if indexed != n {
		t.Fatalf("%d slots index %d entries", indexed, n)
	}
	for i := range tb.entries {
		e := &tb.entries[i]
		if _, p := find(tb, e.addr); e.addr == "" || p < 0 || int(tb.index[p].ref) != i+1 {
			t.Fatalf("entry %d (%q) is not where the index says", i, e.addr)
		}
		if len(e.rows) == 0 && e.nout != 0 || len(e.rows) != 0 && (e.nout <= 0 || e.nout >= len(e.rows)) {
			t.Fatalf("entry %q splits %d rows at %d", e.addr, len(e.rows), e.nout)
		}
		for _, f := range e.rows {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("entry %q holds the non-finite row %v", e.addr, e.rows)
			}
		}
	}
}

// TestTable pins the one neighbor table at capacity 4, the way both its
// users drive it.
func TestTable(t *testing.T) {
	addr := func(i int) []byte { return []byte("peer-" + itoa(i) + ":1") }
	// fill observes 32 addresses, then samples for each of the first 8.
	fill := func(seed int64) (*table, [][]string) {
		tb := newTable(4, seed)
		for i := 0; i < 32; i++ {
			if got := tb.observe(addr(i), floats(float64(i)), floats(float64(-i))); got != string(addr(i)) {
				t.Fatalf("observe(%s) = %q, want the table's copy of the address", addr(i), got)
			}
			tableInvariants(t, tb)
		}
		var samples [][]string
		for i := 0; i < 8; i++ {
			var s []string
			for _, v := range tb.sample(3, string(addr(i))) {
				s = append(s, v.Addr)
			}
			samples = append(samples, s)
		}
		return tb, samples
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"capacity bound with random eviction", func(t *testing.T) {
			tb, _ := fill(1)
			if len(tb.entries) != 4 || tb.evictions != 28 {
				t.Fatalf("%d entries, %d evictions after 32 observations, want 4 and 28", len(tb.entries), tb.evictions)
			}
			// First-in-first-out or last-in-first-out would leave 28..31
			// or 0..3 (plus the newcomer); a random victim leaves neither.
			got := tb.addrs()
			fifo := []string{string(addr(28)), string(addr(29)), string(addr(30)), string(addr(31))}
			lifo := []string{string(addr(0)), string(addr(1)), string(addr(2)), string(addr(31))}
			if reflect.DeepEqual(got, fifo) || reflect.DeepEqual(got, lifo) {
				t.Fatalf("survivors %v: eviction is by age, not at random", got)
			}
			// An evicted entry's storage serves the next address without
			// its rows.
			tb.observe([]byte("rowless"), nil, nil)
			if out, in := tb.rows("rowless"); len(out) != 0 || len(in) != 0 {
				t.Fatalf("address observed without rows has (%v, %v): a recycled entry kept its tenant's", out, in)
			}
		}},
		{"non-finite rows are rejected whole", func(t *testing.T) {
			tb := newTable(4, 1)
			tb.observe([]byte("good"), floats(1, 2), floats(3, 4))
			for name, rows := range map[string][2]wire.Floats{
				"nan-out": {floats(1, math.NaN()), floats(1, 2)},
				"nan-in":  {floats(1, 2), floats(math.NaN(), 2)},
				"inf-out": {floats(math.Inf(1), 2), floats(1, 2)},
				"inf-in":  {floats(1, 2), floats(1, math.Inf(-1))},
				"good":    {floats(math.NaN(), 2), floats(1, 2)},
			} {
				if got := tb.observe([]byte(name), rows[0], rows[1]); got != "" {
					t.Fatalf("observe(%s) with a non-finite row returned %q, want it ignored", name, got)
				}
			}
			tableInvariants(t, tb)
			if out, in := tb.rows("good"); len(tb.entries) != 1 || !reflect.DeepEqual(out, []float64{1, 2}) || !reflect.DeepEqual(in, []float64{3, 4}) {
				t.Fatalf("table %v with good = (%v, %v), want only good with its first rows", tb.addrs(), out, in)
			}
			if tb.observe(nil, floats(1), floats(1)) != "" || len(tb.entries) != 1 {
				t.Fatal("the empty address entered the table")
			}
		}},
		{"empty rows never overwrite known ones", func(t *testing.T) {
			tb := newTable(4, 1)
			tb.observe([]byte("a"), floats(1, 2), floats(3, 4))
			for _, rows := range [][2]wire.Floats{{nil, nil}, {floats(9, 9), nil}, {nil, floats(9, 9)}} {
				tb.observe([]byte("a"), rows[0], rows[1])
				if out, in := tb.rows("a"); !reflect.DeepEqual(out, []float64{1, 2}) || !reflect.DeepEqual(in, []float64{3, 4}) {
					t.Fatalf("rows (%v, %v) after observing a with (%v, %v), want them kept", out, in, rows[0], rows[1])
				}
			}
			// Rows of another shape replace them in the same storage: the
			// directory keeps whatever dimension a deployment runs.
			tb.observe([]byte("a"), floats(5), floats(6, 7, 8))
			if out, in := tb.rows("a"); !reflect.DeepEqual(out, []float64{5}) || !reflect.DeepEqual(in, []float64{6, 7, 8}) {
				t.Fatalf("rows (%v, %v), want ([5], [6 7 8])", out, in)
			}
			if out, in := tb.rows("stranger"); out != nil || in != nil {
				t.Fatalf("rows of an unknown address: (%v, %v)", out, in)
			}
		}},
		{"sample excludes the asker and never repeats", func(t *testing.T) {
			tb, _ := fill(2)
			for _, asker := range tb.addrs() {
				for round := 0; round < 50; round++ {
					seen := map[string]bool{}
					s := tb.sample(3, asker)
					if len(s) > 3 {
						t.Fatalf("sample of %d, want at most 3", len(s))
					}
					for _, v := range s {
						out, in := tb.rows(v.Addr)
						if v.Addr == asker || seen[v.Addr] || !reflect.DeepEqual(v.Out, out) || !reflect.DeepEqual(v.In, in) {
							t.Fatalf("sample %+v for %s: the asker, a repeat, or rows that are not the entry's", s, asker)
						}
						seen[v.Addr] = true
					}
				}
			}
			// Nothing to give draws nothing: k <= 0 and the empty table
			// leave the PRNG where a fresh one of its seed still is.
			empty := newTable(4, 2)
			tb.rng = empty.rng
			if len(tb.sample(0, "")) != 0 || len(tb.sample(-1, "")) != 0 || len(empty.sample(3, "")) != 0 {
				t.Fatal("a sample of nothing, or from nothing, is not empty")
			}
			if tb.rng.Int63() != rand.New(rand.NewSource(2)).Int63() {
				t.Fatal("an empty sample drew from the PRNG")
			}
			if tb.drop("stranger") || !tb.drop(tb.addrs()[0]) || len(tb.entries) != 3 {
				t.Fatalf("drop: table %v", tb.addrs())
			}
			tableInvariants(t, tb)
		}},
		{"same seed, same evictions and samples", func(t *testing.T) {
			a, sa := fill(7)
			b, sb := fill(7)
			c, sc := fill(8)
			if !reflect.DeepEqual(a.addrs(), b.addrs()) || !reflect.DeepEqual(sa, sb) {
				t.Fatalf("seed 7 twice: survivors %v vs %v, samples %v vs %v", a.addrs(), b.addrs(), sa, sb)
			}
			if reflect.DeepEqual(a.addrs(), c.addrs()) && reflect.DeepEqual(sa, sc) {
				t.Fatalf("seeds 7 and 8 agree on survivors %v and samples %v", a.addrs(), sa)
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}

// hostileRows are the row pairs no peer may step against or cache, as
// (out, in) over dimension 4.
var hostileRows = map[string][2][]float64{
	"NaN in Out":  {{1, math.NaN(), 3, 4}, {1, 2, 3, 4}},
	"NaN in In":   {{1, 2, 3, 4}, {1, 2, math.NaN(), 4}},
	"+Inf in Out": {{math.Inf(1), 2, 3, 4}, {1, 2, 3, 4}},
	"-Inf in In":  {{1, 2, 3, 4}, {1, 2, 3, math.Inf(-1)}},
}

// finitePeer fails t when p's own rows or its table hold a non-finite
// value.
func finitePeer(t *testing.T, p *Peer) {
	t.Helper()
	x, y := p.Coordinates()
	for _, f := range append(x, y...) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("own rows x=%v y=%v are not finite", x, y)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	tableInvariants(t, p.table)
}

// TestPeerNeverStepsOnNonFiniteRows: one exchange carrying a NaN or an
// infinity — served, or in a partner's reply — must leave the peer's own
// rows and its table finite. PeerStep reads the partner's rows before
// the table sees them, so the table's own check is not enough: at the
// parent of the PR that added this test one such frame left y all-NaN
// for good.
func TestPeerNeverStepsOnNonFiniteRows(t *testing.T) {
	for name, rows := range hostileRows {
		t.Run("served "+name, func(t *testing.T) {
			p, err := New(Config{Self: "self:1", Dim: 4, Seed: 1, Dialer: &net.Dialer{}, Pinger: testutil.StubPinger{}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			x0, y0 := p.Coordinates()
			ex := &wire.GossipExchange{From: "evil:1", Out: rows[0], In: rows[1], RTTMillis: 25,
				Peers: []wire.LandmarkVec{{Addr: "rider:1", Out: rows[1], In: rows[0]}}}
			rt, rp := p.dispatch(wire.TypeGossipExchange, ex.Encode(nil), nil)
			rep, err := wire.DecodeGossipReply(rp)
			if rt != wire.TypeGossipReply || err != nil || rep.Applied {
				t.Fatalf("answered %v %+v %v, want an unapplied reply", rt, rep, err)
			}
			finitePeer(t, p)
			if x, y := p.Coordinates(); !reflect.DeepEqual(x, x0) || !reflect.DeepEqual(y, y0) {
				t.Fatalf("rows moved from (%v, %v) to (%v, %v) on a hostile frame", x0, y0, x, y)
			}
			if got := p.Neighbors(); len(got) != 0 {
				t.Fatalf("table %v after a frame whose every row pair is non-finite, want it empty", got)
			}
		})
		t.Run("replied "+name, func(t *testing.T) {
			// A fake partner: whatever it is asked, it answers with the
			// hostile rows and claims to have stepped.
			ln := testutil.Loopback(t)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- transport.Serve(ctx, ln, transport.ServeConfig{
					Handler: func(_ wire.MsgType, _, dst []byte) (wire.MsgType, []byte) {
						return wire.TypeGossipReply, (&wire.GossipReply{Applied: true, Out: rows[0], In: rows[1]}).Encode(dst)
					},
					RequestTimeout: 5 * time.Second, Logf: t.Logf,
				})
			}()
			defer func() { cancel(); <-done }()
			p, err := New(Config{Self: "self:1", Dim: 4, Seed: 1, Dialer: &net.Dialer{}, Pinger: testutil.StubPinger{RTT: 25 * time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			x0, y0 := p.Coordinates()
			partner := ln.Addr().String()
			p.AddNeighbor(partner)
			if err := p.GossipRound(ctx); err != nil {
				t.Fatalf("round against the fake partner: %v", err)
			}
			if est, err := p.Estimate(ctx, partner); err == nil {
				t.Fatalf("estimated %v from non-finite rows, want an error", est)
			}
			finitePeer(t, p)
			if x, y := p.Coordinates(); !reflect.DeepEqual(x, x0) || !reflect.DeepEqual(y, y0) {
				t.Fatalf("rows moved from (%v, %v) to (%v, %v) on a hostile reply", x0, y0, x, y)
			}
			if _, ok := p.EstimateLocal(partner); ok {
				t.Fatal("the partner's non-finite rows were cached")
			}
		})
	}
}

// TestPeerUndoesOverflowingStep: rows or an RTT that are finite but
// absurd pass every finiteness check and still overflow PeerStep's
// products; such a step is undone and reported as not applied. An RTT
// solve.ValidRTT refuses is not stepped on at all: at 1e100 ms the step
// stayed finite, so nothing undid it, and it moved the rows from ~5 to
// 7.5e98 for every later partner to read.
func TestPeerUndoesOverflowingStep(t *testing.T) {
	for name, ex := range map[string]*wire.GossipExchange{
		"huge rows":  {From: "evil:1", Out: []float64{1e200, 1, 1, 1}, In: []float64{1, 1, 1e200, 1}, RTTMillis: 25},
		"huge RTT":   {From: "evil:1", Out: []float64{1, 1, 1, 1}, In: []float64{1, 1, 1, 1}, RTTMillis: math.MaxFloat64},
		"absurd RTT": {From: "evil:1", Out: []float64{1, 1, 1, 1}, In: []float64{1, 1, 1, 1}, RTTMillis: 1e100},
	} {
		p, err := New(Config{Self: "self:1", Dim: 4, Seed: 1, Dialer: &net.Dialer{}, Pinger: testutil.StubPinger{}})
		if err != nil {
			t.Fatal(err)
		}
		x0, y0 := p.Coordinates()
		_, rp := p.dispatch(wire.TypeGossipExchange, ex.Encode(nil), nil)
		rep, err := wire.DecodeGossipReply(rp)
		if err != nil || rep.Applied || !reflect.DeepEqual(rep.Out, x0) || !reflect.DeepEqual(rep.In, y0) {
			t.Fatalf("%s: reply %+v (%v), want our rows and no step", name, rep, err)
		}
		if x, y := p.Coordinates(); !reflect.DeepEqual(x, x0) || !reflect.DeepEqual(y, y0) {
			t.Fatalf("%s: rows moved from (%v, %v) to (%v, %v)", name, x0, y0, x, y)
		}
		// An honest exchange afterwards steps, and answers with the rows
		// from before it.
		ok := &wire.GossipExchange{From: "b:1", Out: []float64{1, 2, 3, 4}, In: []float64{4, 3, 2, 1}, RTTMillis: 25}
		_, rp = p.dispatch(wire.TypeGossipExchange, ok.Encode(nil), nil)
		rep, err = wire.DecodeGossipReply(rp)
		if err != nil || !rep.Applied || !reflect.DeepEqual(rep.Out, x0) || !reflect.DeepEqual(rep.In, y0) {
			t.Fatalf("%s: honest exchange answered %+v (%v), want the pre-step rows and a step", name, rep, err)
		}
		if x, _ := p.Coordinates(); reflect.DeepEqual(x, x0) {
			t.Fatalf("%s: an applied step left the rows at %v", name, x)
		}
		finitePeer(t, p)
		p.Close()
	}
}

// fuzzSeeds are frames worth starting from: a well-formed exchange with
// a sample, one with non-finite rows, one whose step overflows, a
// truncated one.
func fuzzSeeds(f *testing.F) {
	good := &wire.GossipExchange{From: "a:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 20,
		Peers: []wire.LandmarkVec{{Addr: "b:1", Out: []float64{5, 6}, In: []float64{7, 8}}, {Addr: "c:1"}}}
	evil := &wire.GossipExchange{From: "e:1", Out: []float64{math.NaN(), 2}, In: []float64{3, math.Inf(1)}, RTTMillis: math.Inf(1)}
	huge := &wire.GossipExchange{From: "h:1", Out: []float64{1e200, 2}, In: []float64{3, 1e200}, RTTMillis: math.MaxFloat64}
	for _, typ := range []byte{byte(wire.TypeGossipExchange), byte(wire.TypeGetModel)} {
		f.Add(typ, good.Encode(nil))
		f.Add(typ, evil.Encode(nil))
		f.Add(typ, huge.Encode(nil))
		f.Add(typ, good.Encode(nil)[:9])
		f.Add(typ, []byte{})
	}
}

// FuzzPeerDispatch: whatever the payload, a peer answers without a
// panic, its own rows stay finite, and its table stays bounded and
// finite.
func FuzzPeerDispatch(f *testing.F) {
	fuzzSeeds(f)
	p, err := New(Config{Self: "self:1", Dim: 2, Seed: 1, MaxNeighbors: 4, Dialer: &net.Dialer{}, Pinger: testutil.StubPinger{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		rt, rp := p.dispatch(wire.MsgType(typ), payload, nil)
		if rt == wire.TypeError {
			if _, err := wire.DecodeError(rp); err != nil {
				t.Fatalf("undecodable error frame: %v", err)
			}
		} else if _, err := wire.DecodeGossipReply(rp); rt != wire.TypeGossipReply || err != nil {
			t.Fatalf("answered %v (%v)", rt, err)
		}
		finitePeer(t, p)
	})
}

// FuzzRendezvousDispatch: the same for the directory, which has no rows
// of its own to protect.
func FuzzRendezvousDispatch(f *testing.F) {
	fuzzSeeds(f)
	r := NewRendezvous(1, nil)
	r.table = newTable(4, 1)
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		rt, rp := r.dispatch(wire.MsgType(typ), payload, nil)
		if rt == wire.TypeError {
			if _, err := wire.DecodeError(rp); err != nil {
				t.Fatalf("undecodable error frame: %v", err)
			}
		} else if rep, err := wire.DecodeGossipReply(rp); rt != wire.TypeGossipReply || err != nil || rep.Applied || len(rep.Out)+len(rep.In) != 0 {
			t.Fatalf("answered %v %+v (%v), want a reply without rows or a step", rt, rep, err)
		}
		tableInvariants(t, r.table)
	})
}

// mapTable is the neighbor table as it was before its index: a Go map
// of pointers beside an order slice and a free list. FuzzTableOracle
// holds table to it: the same seed and calls must give the same
// answers, picks, evictions and samples.
type mapTable struct {
	capacity  int
	rng       *rand.Rand
	entries   map[string]*mapNeighbor
	order     []*mapNeighbor
	free      []*mapNeighbor
	picked    []wire.LandmarkVec
	evictions uint64
}

type mapNeighbor struct {
	addr string
	rows []float64
	nout int
	idx  int
}

func (n *mapNeighbor) out() []float64 { return n.rows[:n.nout] }
func (n *mapNeighbor) in() []float64  { return n.rows[n.nout:] }

func newMapTable(capacity int, seed int64) *mapTable {
	return &mapTable{capacity: capacity, rng: rand.New(rand.NewSource(seed)), entries: make(map[string]*mapNeighbor)}
}

func (t *mapTable) observe(addr []byte, out, in wire.Floats) string {
	if len(addr) == 0 || !out.Finite() || !in.Finite() {
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
			n = new(mapNeighbor)
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

func (t *mapTable) pick() *mapNeighbor { return t.order[t.rng.Intn(len(t.order))] }

func (t *mapTable) evict(n *mapNeighbor) {
	last := len(t.order) - 1
	t.order[n.idx] = t.order[last]
	t.order[n.idx].idx = n.idx
	t.order = t.order[:last]
	delete(t.entries, n.addr)
	n.addr, n.rows, n.nout = "", n.rows[:0], 0
	t.free = append(t.free, n)
}

func (t *mapTable) addrs() []string {
	addrs := make([]string, len(t.order))
	for i, n := range t.order {
		addrs[i] = n.addr
	}
	return addrs
}

func (t *mapTable) rows(addr string) (out, in []float64) {
	n := t.entries[addr]
	if n == nil {
		return nil, nil
	}
	return n.out(), n.in()
}

func (t *mapTable) drop(addr string) bool {
	n := t.entries[addr]
	if n != nil {
		t.evict(n)
	}
	return n != nil
}

func (t *mapTable) sample(k int, exclude string) []wire.LandmarkVec {
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

// fuzzAddrs are the addresses an op names by a byte below 0x80: the
// empty one, a few that collide often, one that is not UTF-8, one that
// is a prefix of another, and one 255 bytes long.
var fuzzAddrs = [][]byte{
	nil, []byte("a:1"), []byte("b:1"), []byte("c:1"), []byte("d:1"), []byte("a:1\x00"),
	{0xff, 0xfe, 0x80}, bytes.Repeat([]byte{'x'}, 255),
}

// tableOps decodes a fuzz input into table calls.
type tableOps struct{ b []byte }

func (o *tableOps) byte() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

// addr is a fuzzAddrs entry, or up to 127 raw bytes of the input.
func (o *tableOps) addr() []byte {
	c := o.byte()
	if c < 0x80 {
		return fuzzAddrs[int(c)%len(fuzzAddrs)]
	}
	n := min(int(c&0x7f), len(o.b))
	a := o.b[:n]
	o.b = o.b[n:]
	return a
}

// row is zero to three values; a byte from 0xf0 up is NaN or ±Inf.
func (o *tableOps) row() wire.Floats {
	v := make([]float64, o.byte()%4)
	for i := range v {
		switch c := o.byte(); {
		case c >= 0xf0 && c%3 == 0:
			v[i] = math.NaN()
		case c >= 0xf0:
			v[i] = math.Inf(int(c%3) - 1)
		default:
			v[i] = float64(int8(c))
		}
	}
	return floats(v...)
}

// sameVecs reports whether two samples name the same entries, in order,
// with equal rows.
func sameVecs(a, b []wire.LandmarkVec) bool {
	return slices.EqualFunc(a, b, func(x, y wire.LandmarkVec) bool {
		return x.Addr == y.Addr && slices.Equal(x.Out, y.Out) && slices.Equal(x.In, y.In)
	})
}

// FuzzTableOracle drives table and mapTable from one seed through one
// decoded sequence of observes (with rows of any shape or none, finite
// or not, under empty, duplicate, non-UTF-8 and 255-byte addresses),
// drops, samples with an exclusion, row lookups and picks, at a capacity
// the sequence fills past. Every return value, pick, eviction and sample
// must match, and the table's invariants must hold after every step. An
// observed address is scribbled over once the call returns, as a reused
// frame buffer would be.
func FuzzTableOracle(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 1, 2, 1, 2, 2, 3, 4, 0, 2, 1, 0xff, 1, 5, 0, 3, 1, 2, 3, 1, 6, 1, 3, 2, 0x83, 'e', 'f', 'g', 0, 0, 4, 7, 2, 5, 1, 3, 2, 2, 4, 1})
	f.Add(int64(7), uint8(1), []byte{0, 7, 1, 9, 1, 8, 0, 6, 2, 1, 1, 2, 3, 0x85, 0xc3, 0x28, 0xa0, 0xa1, 0xe2, 0, 0, 2, 4, 0, 1, 3, 5, 0, 0, 7})
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{64, 512, 4096} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(rng.Int63(), uint8(rng.Intn(256)), ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, capacity uint8, input []byte) {
		c := 1 + int(capacity%16)
		tb, oracle := newTable(c, seed), newMapTable(c, seed)
		ops := &tableOps{input}
		var frame []byte
		for step := 0; len(ops.b) > 0; step++ {
			switch op := ops.byte() % 6; op {
			case 0, 1: // observe, with rows or without
				frame = append(frame[:0], ops.addr()...)
				var out, in wire.Floats
				if op == 0 {
					out, in = ops.row(), ops.row()
				}
				want := oracle.observe(frame, out, in)
				if got := tb.observe(frame, out, in); got != want {
					t.Fatalf("step %d: observe(%q, %v, %v) = %q, want %q", step, frame, out, in, got, want)
				}
				for i := range frame {
					frame[i] = '#'
				}
			case 2:
				a := string(ops.addr())
				if got, want := tb.drop(a), oracle.drop(a); got != want {
					t.Fatalf("step %d: drop(%q) = %v, want %v", step, a, got, want)
				}
			case 3:
				k, exclude := int(ops.byte()%8)-1, string(ops.addr())
				if got, want := tb.sample(k, exclude), oracle.sample(k, exclude); !sameVecs(got, want) {
					t.Fatalf("step %d: sample(%d, %q) = %v, want %v", step, k, exclude, got, want)
				}
			case 4:
				a := string(ops.addr())
				out, in := tb.rows(a)
				wout, win := oracle.rows(a)
				if !slices.Equal(out, wout) || !slices.Equal(in, win) {
					t.Fatalf("step %d: rows(%q) = (%v, %v), want (%v, %v)", step, a, out, in, wout, win)
				}
			case 5:
				if len(oracle.order) > 0 {
					if got, want := tb.entries[tb.pick()].addr, oracle.pick().addr; got != want {
						t.Fatalf("step %d: picked %q, want %q", step, got, want)
					}
				}
			}
			tableInvariants(t, tb)
			if !slices.Equal(tb.addrs(), oracle.addrs()) || tb.evictions != oracle.evictions {
				t.Fatalf("step %d: table %q after %d evictions, want %q after %d", step, tb.addrs(), tb.evictions, oracle.addrs(), oracle.evictions)
			}
			for _, a := range oracle.addrs() {
				out, in := tb.rows(a)
				wout, win := oracle.rows(a)
				if !slices.Equal(out, wout) || !slices.Equal(in, win) {
					t.Fatalf("step %d: %q holds (%v, %v), want (%v, %v)", step, a, out, in, wout, win)
				}
			}
		}
	})
}
