package peer

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

func announce(t *testing.T, r *Rendezvous, from string, coords []float64) *wire.GossipReply {
	t.Helper()
	ex := &wire.GossipExchange{From: from, Out: coords, In: coords, RTTMillis: -1}
	rt, rp := r.dispatch(wire.TypeGossipExchange, ex.Encode(nil), nil)
	if rt != wire.TypeGossipReply {
		t.Fatalf("announce answered with %v: %s", rt, rp)
	}
	rep, err := wire.DecodeGossipReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// directorySize reads the size the way a scrape does.
func directorySize(r *Rendezvous) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.table.entries)
}

// TestRendezvousNeedsNoLandmarks: a directory is a seed and nothing
// else — no landmark set, no model configuration, not even a registry —
// and serves from its first announce.
func TestRendezvousNeedsNoLandmarks(t *testing.T) {
	r := NewRendezvous(0, nil)
	announce(t, r, "peer-0:1", []float64{1, 2})
	if n := directorySize(r); n != 1 {
		t.Fatalf("directory holds %d entries after one announce, want 1", n)
	}
}

func TestRendezvousAnnounceAndSample(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRendezvous(1, reg)
	if rep := announce(t, r, "peer-0:1", []float64{1, 2}); len(rep.Peers) != 0 {
		t.Fatalf("first announce got a sample from an empty directory: %+v", rep.Peers)
	}
	rep := announce(t, r, "peer-1:1", []float64{3, 4})
	if len(rep.Peers) != 1 || rep.Peers[0].Addr != "peer-0:1" {
		t.Fatalf("second announce sample = %+v, want peer-0:1", rep.Peers)
	}
	if len(rep.Out) != 0 || len(rep.In) != 0 || rep.Applied {
		t.Fatalf("rendezvous reply carries coordinates or a step: %+v", rep)
	}
	if rep.Peers[0].Out[0] != 1 || rep.Peers[0].In[1] != 2 {
		t.Fatalf("warm coordinates mangled: %+v", rep.Peers[0])
	}
	// A peer must never be handed itself.
	for i := 0; i < 10; i++ {
		rep := announce(t, r, "peer-0:1", []float64{1, 2})
		for _, p := range rep.Peers {
			if p.Addr == "peer-0:1" {
				t.Fatal("announce returned the asker itself")
			}
		}
	}
	// Entries riding along in an announce seed the directory too, and a
	// measurement in the frame is no reason to step: there are no rows.
	ex := &wire.GossipExchange{From: "peer-2:1", Out: []float64{5, 6}, In: []float64{5, 6}, RTTMillis: 12,
		Peers: []wire.LandmarkVec{{Addr: "peer-3:1", Out: []float64{7, 8}, In: []float64{7, 8}}, {Addr: "peer-4:1"}}}
	rt, rp := r.dispatch(wire.TypeGossipExchange, ex.Encode(nil), nil)
	if got, err := wire.DecodeGossipReply(rp); rt != wire.TypeGossipReply || err != nil || got.Applied {
		t.Fatalf("announce with an RTT answered %v %+v %v, want an unapplied reply", rt, got, err)
	}
	if n := directorySize(r); n != 5 {
		t.Fatalf("directory holds %d entries, want 5 (three announcers, two riders)", n)
	}
	for family, want := range map[string]float64{
		"ides_rendezvous_peers": 5, "ides_rendezvous_announces_total": 13, "ides_rendezvous_evictions_total": 0,
	} {
		if got := scrape(t, reg, family); got != want {
			t.Fatalf("%s = %v, want %v", family, got, want)
		}
	}
}

// scrape returns the sample of an unlabelled family.
func scrape(t *testing.T, reg *telemetry.Registry, family string) float64 {
	t.Helper()
	v, ok := reg.Export()[family]
	if !ok {
		t.Fatalf("family %s not registered", family)
	}
	return v
}

func TestRendezvousRefusesModelTraffic(t *testing.T) {
	r := NewRendezvous(0, nil)
	for _, typ := range []wire.MsgType{
		wire.TypeGetInfo, wire.TypeGetModel, wire.TypeReportRTT,
		wire.TypeRegisterHost, wire.TypeQueryDist, wire.TypeQueryKNN,
	} {
		rt, rp := r.dispatch(typ, nil, nil)
		if rt != wire.TypeError {
			t.Fatalf("%v served by a rendezvous: %v", typ, rt)
		}
		werr, err := wire.DecodeError(rp)
		if err != nil {
			t.Fatal(err)
		}
		if werr.Code != wire.CodeUnavailable {
			t.Fatalf("%v refused with code %d, want CodeUnavailable", typ, werr.Code)
		}
	}
	// Ping still works — peers health-check the directory like any node —
	// and the refusal reads the same over a connection.
	ln := testutil.Loopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.Serve(ctx, ln, transport.ServeConfig{RequestTimeout: 5 * time.Second, Logf: t.Logf})
	}()
	defer func() { cancel(); <-done }()
	dialer := &net.Dialer{}
	if _, err := (&transport.TCPPinger{Dialer: dialer}).Ping(ctx, ln.Addr().String(), 1); err != nil {
		t.Fatalf("ping: %v", err)
	}
	_, _, err := transport.Call(ctx, dialer, ln.Addr().String(), wire.TypeGetModel, nil)
	if werr := (*wire.Error)(nil); !errors.As(err, &werr) || werr.Code != wire.CodeUnavailable {
		t.Fatalf("GetModel over TCP: %v, want CodeUnavailable", err)
	}
}

// TestRendezvousCapacityBound: the directory is the shared table, whose
// bound TestTable pins at capacity 4; here the wiring — 65536 entries,
// every eviction counted — through the announce path.
func TestRendezvousCapacityBound(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRendezvous(3, reg)
	if r.table.capacity != rendezvousCapacity {
		t.Fatalf("directory capacity %d, want %d", r.table.capacity, rendezvousCapacity)
	}
	r.table = newTable(4, 3)
	for i := 0; i < 32; i++ {
		announce(t, r, "peer-"+string(rune('a'+i))+":1", []float64{float64(i)})
	}
	if n := directorySize(r); n != 4 {
		t.Fatalf("directory holds %d entries, want capacity 4", n)
	}
	if got := scrape(t, reg, "ides_rendezvous_evictions_total"); got != 28 {
		t.Fatalf("ides_rendezvous_evictions_total = %v after 32 announces into 4 slots, want 28", got)
	}
	if rep := announce(t, r, "peer-a:1", nil); len(rep.Peers) > rendezvousSample {
		t.Fatalf("sample of %d, want at most %d", len(rep.Peers), rendezvousSample)
	}
}

func TestRendezvousRejectsNonFiniteCoordinates(t *testing.T) {
	r := NewRendezvous(0, nil)
	announce(t, r, "evil:1", []float64{math.NaN()})
	announce(t, r, "evil2:1", []float64{math.Inf(1)})
	ex := &wire.GossipExchange{From: "carrier:1", RTTMillis: -1,
		Peers: []wire.LandmarkVec{{Addr: "evil3:1", Out: []float64{1}, In: []float64{math.Inf(-1)}}}}
	r.dispatch(wire.TypeGossipExchange, ex.Encode(nil), nil)
	if got := r.table.addrs(); len(got) != 1 || got[0] != "carrier:1" {
		t.Fatalf("directory %v, want only carrier:1: a non-finite row entered it", got)
	}
	// The error path for malformed frames stays CodeBadRequest.
	rt, rp := r.dispatch(wire.TypeGossipExchange, []byte{0xFF}, nil)
	if rt != wire.TypeError {
		t.Fatalf("malformed announce answered with %v", rt)
	}
	if werr, err := wire.DecodeError(rp); err != nil || werr.Code != wire.CodeBadRequest {
		t.Fatalf("malformed announce error = %v, %v", werr, err)
	}
}
