package wire_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// untrusted is every function in this package, and in the history
// record codec built on it, that turns bytes from outside the process
// into a message — with a valid sample of what each reads.
var untrusted = func() []decoder {
	vec := []float64{1, 2}
	peers := []wire.LandmarkVec{{Addr: "q:2", Out: vec, In: vec}, {Addr: "r:3"}}
	landmarks := []wire.LandmarkVec{{Addr: "q:2", Out: vec, In: vec}, {Addr: "r:3", Out: vec, In: vec}}
	exchange := (&wire.GossipExchange{From: "p:1", Out: vec, In: vec, RTTMillis: 7, Peers: peers}).Encode(nil)
	reply := (&wire.GossipReply{Applied: true, Out: vec, In: vec, Peers: peers}).Encode(nil)
	batch := (&wire.QueryBatch{From: "a", Targets: []string{"b", "", "ccc"}}).Encode(nil)
	ds := []decoder{
		{"DecodeError", (&wire.Error{Code: 1, Text: "x"}).Encode(nil), func(b []byte) { wire.DecodeError(b) }},
		{"DecodeHello", (&wire.Hello{MaxVersion: 2, MaxInflight: 8}).Encode(nil), func(b []byte) { wire.DecodeHello(b) }},
		{"DecodeHelloAck", (&wire.HelloAck{Version: 2, MaxInflight: 8}).Encode(nil), func(b []byte) { wire.DecodeHelloAck(b) }},
		{"DecodePing", (&wire.Ping{Token: 1}).Encode(nil), func(b []byte) { wire.DecodePing(b) }},
		{"DecodePong", (&wire.Pong{Token: 1}).Encode(nil), func(b []byte) { wire.DecodePong(b) }},
		{"PingToken", (&wire.Ping{Token: 1}).Encode(nil), func(b []byte) { wire.PingToken(b) }},
		{"DecodeInfo", (&wire.Info{Dim: 1, NumLandmarks: 2, Algorithm: "SVD", ModelReady: true, Epoch: 3}).Encode(nil), func(b []byte) { wire.DecodeInfo(b) }},
		{"DecodeModel", (&wire.Model{Dim: 2, Algorithm: "SVD", Landmarks: landmarks, Epoch: 3, Rev: 4}).Encode(nil), func(b []byte) { wire.DecodeModel(b) }},
		{"DecodeReportRTT", (&wire.ReportRTT{From: "a", Entries: []wire.RTTEntry{{To: "b", RTTMillis: 3}, {To: "c", RTTMillis: 4}}}).Encode(nil), func(b []byte) { wire.DecodeReportRTT(b) }},
		{"ParseRegisterHost", (&wire.RegisterHost{Addr: "a", Out: vec, In: vec, Epoch: 3}).Encode(nil), func(b []byte) { wire.ParseRegisterHost(b) }},
		{"GetVectorsView", (&wire.GetVectors{Addr: "a"}).Encode(nil), func(b []byte) { wire.GetVectorsView(b) }},
		{"DecodeVectors", (&wire.Vectors{Found: true, Out: vec, In: vec, Epoch: 3}).Encode(nil), func(b []byte) { wire.DecodeVectors(b) }},
		{"QueryDistView", (&wire.QueryDist{From: "a", To: "b"}).Encode(nil), func(b []byte) { wire.QueryDistView(b) }},
		{"ParseDistance", (&wire.Distance{Found: true, Millis: 1}).Encode(nil), func(b []byte) { wire.ParseDistance(b) }},
		{"QueryBatchView", batch, func(b []byte) { wire.QueryBatchView(b, 4096, nil) }},
		{"DecodeQueryBatch", batch, func(b []byte) { wire.DecodeQueryBatch(b) }},
		{"DecodeDistances", (&wire.Distances{SrcFound: true, Results: []wire.DistResult{{Found: true, Millis: 1}, {}}, Epoch: 3}).Encode(nil), func(b []byte) { wire.DecodeDistances(b) }},
		{"QueryKNNView", (&wire.QueryKNN{From: "a", K: 3}).Encode(nil), func(b []byte) { wire.QueryKNNView(b) }},
		{"DecodeNeighbors", (&wire.Neighbors{SrcFound: true, Entries: []wire.NeighborEntry{{Addr: "b", Millis: 2}, {Addr: "c", Millis: 3}}, Epoch: 3}).Encode(nil), func(b []byte) { wire.DecodeNeighbors(b) }},
		{"DecodeSubscribe", (&wire.Subscribe{ID: "f1", Epoch: 3, Rev: 4}).Encode(nil), func(b []byte) { wire.DecodeSubscribe(b) }},
		{"ParseGossipExchange", exchange, func(b []byte) { wire.ParseGossipExchange(b) }},
		{"DecodeGossipExchange", exchange, func(b []byte) { wire.DecodeGossipExchange(b) }},
		{"ParseGossipReply", reply, func(b []byte) { wire.ParseGossipReply(b) }},
		{"DecodeGossipReply", reply, func(b []byte) { wire.DecodeGossipReply(b) }},
	}
	for _, rec := range []telemetry.Record{
		&telemetry.ConfigRecord{Dim: 2, Algorithm: "svd", Solver: "sgd", Landmarks: []string{"a", "b"}},
		&telemetry.ReportRecord{TimeUnixNanos: 1, Report: wire.ReportRTT{From: "a", Entries: []wire.RTTEntry{
			{To: "b", RTTMillis: 4.5}, {To: "c", RTTMillis: 0.25},
		}}},
		&telemetry.EventRecord{Kind: telemetry.EventFit, Epoch: 1, QueueDepth: 2},
		&telemetry.EpochSummaryRecord{Epoch: 1, Rev: 2, Samples: 3, MeanAbsRel: 0.5},
	} {
		typ := rec.Type()
		ds = append(ds, decoder{
			name:   fmt.Sprintf("DecodeRecord(%T)", rec),
			sample: rec.AppendPayload(nil),
			decode: func(b []byte) { telemetry.DecodeRecord(typ, b) },
		})
	}
	return ds
}()

type decoder struct {
	name   string
	sample []byte
	decode func([]byte)
}

// allocBound is what a decoder may allocate for an input: a generous
// multiple of the bytes the sender paid for, plus slack for the message
// struct and an error.
func allocBound(in []byte) uint64 { return 64*uint64(len(in)) + 4<<10 }

// allocated runs d on in and returns the bytes the call allocated. Its
// callers run on one P: ReadMemStats stops the world, which costs 40 µs
// with two Ps and 2 µs with one, and the sweep below calls it 400k times.
func (d decoder) allocated(in []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.decode(in)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersBoundAllocation: no decoder sizes anything by a count the
// sender did not pay for in bytes. Every 4-byte window of every valid
// sample is overwritten with counts from merely large to 2³²−1 — some
// window is the message's count field, and the interesting counts are
// the ones under the old MaxPayload/k limits — and the result is
// decoded whole and at every truncation. Before wire.Reader this failed
// on DecodeReportRTT (161 MB from 6 bytes) and DecodeModel (268 MB from
// 13), which compared their count with MaxPayload alone.
func TestDecodersBoundAllocation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	counts := []uint32{65536, 4_000_000, wire.MaxPayload / 16, wire.MaxPayload / 10, 1<<32 - 1}
	for _, d := range untrusted {
		var worstIn, overIn int
		var worst, over uint64
		check := func(in []byte) {
			got := d.allocated(in)
			if got > worst {
				worstIn, worst = len(in), got
			}
			if got > allocBound(in) && got > over {
				overIn, over = len(in), got
			}
		}
		for cut := 0; cut <= len(d.sample); cut++ {
			check(d.sample[:cut])
		}
		hostile := make([]byte, len(d.sample))
		for at := 0; at+4 <= len(d.sample); at++ {
			for _, n := range counts {
				copy(hostile, d.sample)
				binary.BigEndian.PutUint32(hostile[at:], n)
				for cut := at + 4; cut <= len(hostile); cut++ {
					check(hostile[:cut])
				}
			}
		}
		t.Logf("%-40s sample %3d B, worst case %3d B in -> %d B allocated", d.name, len(d.sample), worstIn, worst)
		if over > 0 {
			t.Errorf("%s allocates %d B for a %d-byte input", d.name, over, overIn)
		}
	}
}

// FuzzDecodersBoundAllocation is the same property over arbitrary bytes:
// an allocation is not a failure any other fuzz target can see.
func FuzzDecodersBoundAllocation(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, d := range untrusted {
		f.Add(d.sample)
	}
	f.Add(binary.BigEndian.AppendUint32([]byte{0, 0}, wire.MaxPayload/10))
	// Model as a pre-Rev and a pre-epoch peer sends it: the trailing
	// fields a follower and a client read as absent.
	model := (&wire.Model{Dim: 2, Algorithm: "SVD", Landmarks: []wire.LandmarkVec{{Addr: "q:2", Out: []float64{1, 2}, In: []float64{3, 4}}}, Epoch: 3, Rev: 4}).Encode(nil)
	f.Add(model[:len(model)-8])
	f.Add(model[:len(model)-16])
	// RegisterHost as a pre-epoch client sends it: no trailing epoch.
	reg := (&wire.RegisterHost{Addr: "h", Out: []float64{1, 2}, In: []float64{3, 4}, Epoch: 5}).Encode(nil)
	f.Add(reg[:len(reg)-8])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range untrusted {
			if got := d.allocated(data); got > allocBound(data) {
				t.Fatalf("%s allocates %d B for a %d-byte input", d.name, got, len(data))
			}
		}
	})
}
