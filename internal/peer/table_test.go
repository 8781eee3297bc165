package peer

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"reflect"
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
// at most capacity entries, the map and the order slice naming the same
// ones at their recorded positions, and no non-finite row anywhere.
func tableInvariants(t *testing.T, tb *table) {
	t.Helper()
	if len(tb.order) > tb.capacity || len(tb.order) != len(tb.entries) {
		t.Fatalf("table holds %d ordered / %d mapped entries at capacity %d", len(tb.order), len(tb.entries), tb.capacity)
	}
	for i, n := range tb.order {
		if n.idx != i || tb.entries[n.addr] != n || n.addr == "" {
			t.Fatalf("entry %d (%q, idx %d) is not where the table says", i, n.addr, n.idx)
		}
		for _, f := range n.rows {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("entry %q holds the non-finite row %v", n.addr, n.rows)
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
			if len(tb.order) != 4 || tb.evictions != 28 {
				t.Fatalf("%d entries, %d evictions after 32 observations, want 4 and 28", len(tb.order), tb.evictions)
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
			if out, in := tb.rows("good"); len(tb.order) != 1 || !reflect.DeepEqual(out, []float64{1, 2}) || !reflect.DeepEqual(in, []float64{3, 4}) {
				t.Fatalf("table %v with good = (%v, %v), want only good with its first rows", tb.addrs(), out, in)
			}
			if tb.observe(nil, floats(1), floats(1)) != "" || len(tb.order) != 1 {
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
			if tb.drop("stranger") || !tb.drop(tb.addrs()[0]) || len(tb.order) != 3 {
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
