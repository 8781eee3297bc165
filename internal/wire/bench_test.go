package wire

import (
	"fmt"
	"testing"
)

// The four parsers that sit on a serving hot path: the point query's
// request view, the bulk query's request view and reply decoder, and
// the gossip round's exchange view with the sample walk a peer does on
// every frame. CI runs them as a smoke; compare two commits with
// -benchtime 200000x -count 5.

var benchSink int

func BenchmarkViewQueryDist(b *testing.B) {
	payload := (&QueryDist{From: "host-00017:4100", To: "host-09213:4100"}).Encode(nil)
	b.ReportAllocs()
	for b.Loop() {
		from, to, err := QueryDistView(payload)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(from) + len(to)
	}
}

func BenchmarkViewQueryBatch256(b *testing.B) {
	q := &QueryBatch{From: "host-00017:4100"}
	for i := 0; i < 256; i++ {
		q.Targets = append(q.Targets, fmt.Sprintf("host-%05d:4100", i))
	}
	payload := q.Encode(nil)
	var targets [][]byte
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if _, targets, err = QueryBatchView(payload, 4096, targets); err != nil {
			b.Fatal(err)
		}
		benchSink += len(targets)
	}
}

func BenchmarkDecodeDistances256(b *testing.B) {
	payload := (&Distances{SrcFound: true, Results: make([]DistResult, 256), Epoch: 3}).Encode(nil)
	b.ReportAllocs()
	for b.Loop() {
		m, err := DecodeDistances(payload)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(m.Results)
	}
}

func BenchmarkViewGossipExchange(b *testing.B) {
	row := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ex := &GossipExchange{From: "peer-0017:9000", Out: row, In: row, RTTMillis: 42}
	for i := 0; i < 4; i++ {
		ex.Peers = append(ex.Peers, LandmarkVec{Addr: fmt.Sprintf("peer-%04d:9000", i), Out: row, In: row})
	}
	payload := ex.Encode(nil)
	b.ReportAllocs()
	for b.Loop() {
		v, err := ParseGossipExchange(payload)
		if err != nil {
			b.Fatal(err)
		}
		for addr, out, _, ok := v.Peers.Next(); ok; addr, out, _, ok = v.Peers.Next() {
			benchSink += len(addr) + out.Len()
		}
	}
}
