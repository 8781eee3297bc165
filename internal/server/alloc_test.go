package server

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// TestGetModelAllocs: GetModel on a served model appends the payload
// Install encoded once for the generation, so a reply costs no heap
// allocation (it cost one wire.Model per request when every GetModel
// re-encoded the model).
func TestGetModelAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	s := ringLandmarks(t, core.SVD)
	defer s.Close()
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}
	var dst []byte
	op := func() {
		var typ wire.MsgType
		if typ, dst = s.dispatchTo(wire.TypeGetModel, nil, dst[:0]); typ != wire.TypeModel {
			t.Fatalf("GetModel answered %v", typ)
		}
	}
	op() // grow dst to the payload's size
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Errorf("GetModel allocates %.0f times per request, want 0", allocs)
	}
}

// TestRegisterAllocs is the allocation gate of registration: a leader
// re-registering its 8,192 hosts in turn costs no heap allocation per
// RegisterHost. handleRegister checks a view of the frame and the
// directory copies the address and both rows from it into the shard's
// slab; decoding the frame first cost four allocations (the message,
// the address string and two rows). What remains is each shard's
// compaction — a new slab and table once per L+1 re-registrations of
// its L hosts — which AllocsPerRun's whole-allocation count per call
// amortises to 0.
func TestRegisterAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	const hosts, dim = 8192, 8
	s, err := New(Config{Landmarks: []string{"lm-0", "lm-1"}, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, hosts)
	for i := range payloads {
		reg := &wire.RegisterHost{Addr: fmt.Sprintf("host-%05d", i), Out: make([]float64, dim), In: make([]float64, dim)}
		for d := 0; d < dim; d++ {
			reg.Out[d], reg.In[d] = rng.Float64()*10, rng.Float64()*10
		}
		payloads[i] = reg.Encode(nil)
	}
	var dst []byte
	next := 0
	op := func() {
		var typ wire.MsgType
		if typ, dst = s.dispatchTo(wire.TypeRegisterHost, payloads[next%hosts], dst[:0]); typ != wire.TypeAck {
			t.Fatalf("RegisterHost answered %v", typ)
		}
		next++
	}
	for range 2 * hosts {
		op() // register every host, then re-register each once: slabs at their steady size
	}
	allocs := testing.AllocsPerRun(1000, op)
	t.Logf("RegisterHost: %.0f allocs per dispatchTo", allocs)
	if allocs != 0 {
		t.Errorf("RegisterHost allocates %.0f times per request, want 0", allocs)
	}
}

// TestBulkQueryAllocs is the allocation gate of the bulk read path, the
// companion of the root package's TestPointQueryZeroAlloc (it lives here
// because it measures dispatchTo itself, with no client in the count):
// on a warmed 8,192-host server one QueryBatch of 256 targets costs no
// heap allocation at all — target views, grouped-lookup buckets, rows
// and results all come from the pooled scratch — and one indexed
// QueryKNN of 16 costs two: the search's top-k heap, which is also the
// result, and the string of the address it excludes. Before the pooled
// path the batch paid a string per target plus four result slices, and
// the k-NN seven; before the engine returned the index's slice as it
// was, the k-NN paid three.
func TestBulkQueryAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	const hosts, dim = 8192, 8
	s, err := New(Config{Landmarks: []string{"lm-0", "lm-1"}, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]string, hosts)
	var buf []byte
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%05d", i)
		reg := &wire.RegisterHost{Addr: addrs[i], Out: make([]float64, dim), In: make([]float64, dim)}
		for d := 0; d < dim; d++ {
			reg.Out[d], reg.In[d] = rng.Float64()*10, rng.Float64()*10
		}
		buf = reg.Encode(buf[:0])
		if typ, _ := s.Handle(wire.TypeRegisterHost, buf); typ != wire.TypeAck {
			t.Fatalf("register %s answered %v", addrs[i], typ)
		}
	}
	if !s.Engine().BuildKNNIndex() {
		t.Fatal("8,192 hosts did not get a k-NN index")
	}

	batch := &wire.QueryBatch{From: addrs[0]}
	for i := 0; i < 256; i++ {
		batch.Targets = append(batch.Targets, addrs[rng.Intn(hosts)])
	}
	requests := []struct {
		name    string
		typ     wire.MsgType
		payload []byte
		reply   wire.MsgType
		max     float64
	}{
		{"QueryBatch-256", wire.TypeQueryBatch, batch.Encode(nil), wire.TypeDistances, 0},
		{"QueryKNN-16", wire.TypeQueryKNN, (&wire.QueryKNN{From: addrs[0], K: 16}).Encode(nil), wire.TypeNeighbors, 2},
	}
	var dst []byte
	for _, r := range requests {
		op := func() {
			var typ wire.MsgType
			if typ, dst = s.dispatchTo(r.typ, r.payload, dst[:0]); typ != r.reply {
				t.Fatalf("%s answered %v", r.name, typ)
			}
		}
		for i := 0; i < 16; i++ {
			op() // grow the pooled scratch and dst to their steady size
		}
		allocs := testing.AllocsPerRun(200, op)
		t.Logf("%s: %.0f allocs per dispatchTo", r.name, allocs)
		if allocs > r.max {
			t.Errorf("%s allocates %.0f times per request, want at most %.0f", r.name, allocs, r.max)
		}
	}
}
