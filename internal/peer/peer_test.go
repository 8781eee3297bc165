package peer

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// fleet is a small all-peer simnet deployment for tests: every host
// runs a serving Peer, bootstrap is a static ring unless rendezvous
// addresses are given.
type fleet struct {
	nw    *simnet.Network
	peers []*Peer
	names []string
	stop  context.CancelFunc
}

func newFleet(t *testing.T, n int, seed int64, mutate func(i int, cfg *Config)) *fleet {
	t.Helper()
	topo, err := topology.Generate(topology.Config{NumHosts: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = "peer-" + string(rune('a'+i%26)) + "-" + itoa(i)
	}
	nw, err := simnet.New(topo, names, simnet.Config{TimeScale: 1e-5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{nw: nw, names: names, stop: cancel}
	t.Cleanup(func() {
		cancel()
		for _, p := range f.peers {
			p.Close()
		}
		nw.Close()
	})
	for i, name := range names {
		h, err := nw.Host(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self:   name,
			Seed:   seed + 7919*int64(i+1),
			Dialer: h,
			Pinger: h,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := h.Listen()
		if err != nil {
			t.Fatal(err)
		}
		go p.Serve(ctx, ln)
		f.peers = append(f.peers, p)
	}
	return f
}

// ringBootstrap seeds each peer with its two ring neighbors.
func (f *fleet) ringBootstrap() {
	n := len(f.peers)
	for i, p := range f.peers {
		p.AddNeighbor(f.names[(i+1)%n])
		p.AddNeighbor(f.names[(i+n-1)%n])
	}
}

// drive runs rounds of gossip in fixed peer order.
func (f *fleet) drive(t *testing.T, rounds int) {
	t.Helper()
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, p := range f.peers {
			if err := p.GossipRound(ctx); err != nil {
				t.Fatalf("round %d, peer %s: %v", r, p.Self(), err)
			}
		}
	}
}

// relErrors collects |est − truth| / truth over all ordered pairs with
// locally cached coordinates.
func (f *fleet) relErrors(t *testing.T) []float64 {
	t.Helper()
	var errs []float64
	for i, p := range f.peers {
		for j, name := range f.names {
			if i == j {
				continue
			}
			est, ok := p.EstimateLocal(name)
			if !ok {
				continue
			}
			truth, err := f.nw.GroundTruthRTT(p.Self(), name)
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, math.Abs(est-truth)/truth)
		}
	}
	return errs
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestNewValidation(t *testing.T) {
	h := struct {
		transport.Dialer
		transport.Pinger
	}{}
	if _, err := New(Config{Dialer: h, Pinger: h}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "a"}); err == nil {
		t.Fatal("missing Dialer/Pinger accepted")
	}
	if _, err := New(Config{Self: "a", Dialer: h, Pinger: h, SGD: solve.SGDOptions{Reg: -1}}); err == nil {
		t.Fatal("negative Reg accepted")
	}
	if _, err := New(Config{Self: "a", Dialer: h, Pinger: h, SGD: solve.SGDOptions{Rate: 2}}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestGossipRoundNoNeighbors(t *testing.T) {
	f := newFleet(t, 2, 1, nil)
	if err := f.peers[0].GossipRound(context.Background()); err != ErrNoNeighbors {
		t.Fatalf("empty table round = %v, want ErrNoNeighbors", err)
	}
}

func TestGossipConverges(t *testing.T) {
	f := newFleet(t, 10, 42, nil)
	f.ringBootstrap()
	f.drive(t, 120)
	errs := f.relErrors(t)
	if len(errs) < 40 {
		t.Fatalf("only %d pairs have cached coordinates", len(errs))
	}
	sort.Float64s(errs)
	med, p90 := quantile(errs, 0.5), quantile(errs, 0.9)
	t.Logf("pairs=%d median=%.3f p90=%.3f", len(errs), med, p90)
	if med > 0.30 {
		t.Fatalf("median relative error %.3f > 0.30", med)
	}
	if p90 > 1.0 {
		t.Fatalf("p90 relative error %.3f > 1.0", p90)
	}
	// Convergence must show up in the step telemetry too.
	for _, p := range f.peers {
		st := p.Stats()
		if st.Round == 0 || st.LastStep > 0.5 {
			t.Fatalf("peer %s stats = %+v", p.Self(), st)
		}
	}
}

func TestGossipConvergesLockstepTransport(t *testing.T) {
	// MuxConns < 0 pins the pool to v1 lockstep framing; the serve loop
	// must work identically without the Hello upgrade.
	f := newFleet(t, 6, 7, func(i int, cfg *Config) {
		cfg.Pool.MuxConns = -1
	})
	f.ringBootstrap()
	f.drive(t, 80)
	errs := f.relErrors(t)
	sort.Float64s(errs)
	if med := quantile(errs, 0.5); med > 0.30 {
		t.Fatalf("lockstep median relative error %.3f > 0.30", med)
	}
}

func TestGossipDeterministicSameSeed(t *testing.T) {
	run := func() [][]float64 {
		f := newFleet(t, 6, 99, nil)
		f.ringBootstrap()
		f.drive(t, 40)
		var coords [][]float64
		for _, p := range f.peers {
			out, in := p.Coordinates()
			coords = append(coords, append(out, in...))
		}
		f.stop()
		return coords
	}
	a, b := run(), run()
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("peer %d coordinate %d differs across same-seed runs: %v vs %v",
					i, k, a[i][k], b[i][k])
			}
		}
	}
}

func TestEstimateFetchesOnMiss(t *testing.T) {
	f := newFleet(t, 3, 5, nil)
	a, b := f.peers[0], f.peers[1]
	if _, ok := a.EstimateLocal(b.Self()); ok {
		t.Fatal("estimate cached before any contact")
	}
	est, err := a.Estimate(context.Background(), b.Self())
	if err != nil {
		t.Fatal(err)
	}
	aOut, aIn := a.Coordinates()
	bOut, bIn := b.Coordinates()
	if want := solve.PeerEstimate(aOut, aIn, bOut, bIn); est != want {
		t.Fatalf("fetched estimate %v, want %v", est, want)
	}
	if cached, ok := a.EstimateLocal(b.Self()); !ok || cached != est {
		t.Fatalf("estimate not cached after fetch: %v, %v", cached, ok)
	}
}

func TestAnnounceBootstrapsFromPeerSample(t *testing.T) {
	// Peer 2 knows nobody but has peer 1 as a rendezvous contact; peer 1
	// knows peer 0. One gossip round announces, merges the returned
	// sample, and immediately exchanges with someone from it.
	f := newFleet(t, 3, 11, func(i int, cfg *Config) {
		if i == 2 {
			cfg.RendezvousAddrs = []string{"peer-b-1"}
		}
	})
	f.peers[1].AddNeighbor(f.names[0])
	if err := f.peers[2].GossipRound(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := f.peers[2].Neighbors()
	if len(got) == 0 {
		t.Fatal("announce merged no neighbors")
	}
	for _, n := range got {
		if n == f.names[2] {
			t.Fatal("peer learned itself as a neighbor")
		}
	}
}

func TestNeighborTableBoundedAndChurns(t *testing.T) {
	f := newFleet(t, 4, 13, func(i int, cfg *Config) {
		cfg.MaxNeighbors = 2
	})
	p := f.peers[0]
	for _, n := range f.names[1:] {
		p.AddNeighbor(n)
	}
	for i := 0; i < 8; i++ {
		p.AddNeighbor("ghost-" + itoa(i))
	}
	if got := len(p.Neighbors()); got != 2 {
		t.Fatalf("table size %d, want 2", got)
	}
	// Partition the whole fleet away from peer 0: every gossip attempt
	// fails, dropping the partner until the table is empty.
	if err := f.nw.Partition(f.names[0]); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20 && len(p.Neighbors()) > 0; i++ {
		if err := p.GossipRound(ctx); err == nil {
			// Ghost entries always fail; real peers are unreachable. Any
			// success here means the partition leaked.
			t.Fatal("gossip succeeded across a partition")
		}
	}
	if got := len(p.Neighbors()); got != 0 {
		t.Fatalf("churn left %d neighbors, want 0", got)
	}
	if st := p.Stats(); st.Churn == 0 {
		t.Fatalf("churn counter not incremented: %+v", st)
	}
	// Heal and re-bootstrap: the peer recovers via AddNeighbor.
	f.nw.Heal()
	p.AddNeighbor(f.names[1])
	if err := p.GossipRound(ctx); err != nil {
		t.Fatalf("post-heal round: %v", err)
	}
}

func TestServeRejectsUnknownType(t *testing.T) {
	f := newFleet(t, 2, 17, nil)
	h, err := f.nw.Host(f.names[0])
	if err != nil {
		t.Fatal(err)
	}
	pool, err := transport.NewPool(transport.PoolConfig{Dialer: h, MuxConns: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, _, err = pool.Call(context.Background(), f.names[1], 0x42, nil)
	if err == nil {
		t.Fatal("unknown type accepted")
	}
}

// TestRecycledTableEntryCarriesNoStaleRows: the table copies rows into
// storage it owns and hands an evicted entry's storage to the next
// address. The frame a row came from can be overwritten afterwards
// without moving the cached estimate, and an address that arrives
// without coordinates into a recycled entry has none — not the previous
// tenant's.
func TestRecycledTableEntryCarriesNoStaleRows(t *testing.T) {
	f := newFleet(t, 2, 19, func(i int, cfg *Config) {
		cfg.MaxNeighbors = 2
		cfg.Dim = 2
	})
	p := f.peers[0]
	frame := (&wire.GossipReply{Out: []float64{3, 4}, In: []float64{5, 6}}).Encode(nil)
	rep, err := wire.ParseGossipReply(frame)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.observeLocked([]byte("a"), rep.Out, rep.In)
	p.observeLocked([]byte("b"), rep.Out, rep.In)
	p.mu.Unlock()
	want, ok := p.EstimateLocal("a")
	if !ok {
		t.Fatal("no estimate for an address observed with rows")
	}
	for i := range frame {
		frame[i] = 0xFF // the frame buffer moves on to the next exchange
	}
	if got, _ := p.EstimateLocal("a"); got != want {
		t.Fatalf("estimate moved from %v to %v with the frame buffer: rows alias it", want, got)
	}

	// The table is full: each newcomer evicts an entry at random and
	// takes over its storage, which by now has held rows.
	for i := 0; i < 8; i++ {
		addr := "ghost-" + itoa(i)
		p.AddNeighbor(addr)
		if est, ok := p.EstimateLocal(addr); ok {
			t.Fatalf("%s was never seen with coordinates but estimates %v", addr, est)
		}
	}
	if got := p.Neighbors(); len(got) != 2 {
		t.Fatalf("table %v, want 2 entries", got)
	}
}
