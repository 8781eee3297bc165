package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestGossipExchangeRoundTrip(t *testing.T) {
	in := &GossipExchange{
		From:      "peer-3:9000",
		Out:       []float64{1, 2.5, 3},
		In:        []float64{4, 5, 6.25},
		RTTMillis: 42.125,
		Peers: []LandmarkVec{
			{Addr: "peer-1:9000", Out: []float64{7, 8, 9}, In: []float64{10, 11, 12}},
			{Addr: "peer-9:9000"}, // known address, no cached coordinates
		},
	}
	out, err := DecodeGossipExchange(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || out.RTTMillis != in.RTTMillis {
		t.Fatalf("round trip = %+v", out)
	}
	if !reflect.DeepEqual(out.Out, in.Out) || !reflect.DeepEqual(out.In, in.In) {
		t.Fatalf("vectors mangled: %+v", out)
	}
	if len(out.Peers) != 2 || out.Peers[0].Addr != "peer-1:9000" ||
		!reflect.DeepEqual(out.Peers[0].Out, in.Peers[0].Out) ||
		out.Peers[1].Addr != "peer-9:9000" || len(out.Peers[1].Out) != 0 {
		t.Fatalf("peer sample mangled: %+v", out.Peers)
	}
}

func TestGossipExchangeNegativeRTTSentinel(t *testing.T) {
	// The "no measurement" sentinel must survive the wire exactly.
	in := &GossipExchange{From: "p", Out: []float64{1}, In: []float64{2}, RTTMillis: -1}
	out, err := DecodeGossipExchange(in.Encode(nil))
	if err != nil || out.RTTMillis != -1 {
		t.Fatalf("sentinel round trip = %+v, %v", out, err)
	}
}

func TestGossipReplyRoundTrip(t *testing.T) {
	for _, in := range []*GossipReply{
		{
			Applied: true,
			Out:     []float64{1, 2},
			In:      []float64{3, 4},
			Peers:   []LandmarkVec{{Addr: "a:1", Out: []float64{5}, In: []float64{6}}},
		},
		// Rendezvous shape: no coordinates, only a peer sample.
		{Peers: []LandmarkVec{{Addr: "b:2"}, {Addr: "c:3"}}},
		// Fully empty.
		{},
	} {
		out, err := DecodeGossipReply(in.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Applied != in.Applied || len(out.Out) != len(in.Out) ||
			len(out.In) != len(in.In) || len(out.Peers) != len(in.Peers) {
			t.Fatalf("round trip = %+v, want %+v", out, in)
		}
		for i := range in.Peers {
			// Empty decodes as a non-nil zero-length slice; compare values.
			if out.Peers[i].Addr != in.Peers[i].Addr ||
				len(out.Peers[i].Out) != len(in.Peers[i].Out) ||
				(len(in.Peers[i].Out) > 0 && !reflect.DeepEqual(out.Peers[i].Out, in.Peers[i].Out)) {
				t.Fatalf("peer %d mangled: %+v", i, out.Peers[i])
			}
		}
	}
}

func TestGossipDecodersRejectTruncationAndHostileCounts(t *testing.T) {
	ex := (&GossipExchange{
		From: "p:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 9,
		Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{5}, In: []float64{6}}},
	}).Encode(nil)
	rep := (&GossipReply{
		Applied: true, Out: []float64{1}, In: []float64{2},
		Peers: []LandmarkVec{{Addr: "q:2"}},
	}).Encode(nil)
	// The views and the materializing decoders share one parser, so every
	// case is put to both.
	rejectsExchange := func(b []byte) bool {
		_, verr := ParseGossipExchange(b)
		_, derr := DecodeGossipExchange(b)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("view says %v, decoder says %v on %x", verr, derr, b)
		}
		return verr != nil
	}
	rejectsReply := func(b []byte) bool {
		_, verr := ParseGossipReply(b)
		_, derr := DecodeGossipReply(b)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("view says %v, decoder says %v on %x", verr, derr, b)
		}
		return verr != nil
	}
	if rejectsExchange(ex) || rejectsReply(rep) {
		t.Fatal("intact payload rejected")
	}
	for i := 0; i < len(ex); i++ {
		if !rejectsExchange(ex[:i]) {
			t.Fatalf("GossipExchange truncated at %d accepted", i)
		}
	}
	for i := 0; i < len(rep); i++ {
		if !rejectsReply(rep[:i]) {
			t.Fatalf("GossipReply truncated at %d accepted", i)
		}
	}
	// A hostile peer count far beyond the payload must fail fast, not
	// allocate (the decoders) or walk (the views).
	hostile := (&GossipExchange{From: "p:1", Out: []float64{1}, In: []float64{2}, RTTMillis: 1}).Encode(nil)
	hostile = hostile[:len(hostile)-4] // strip the zero peer count
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF)
	if !rejectsExchange(hostile) {
		t.Fatal("hostile peer count accepted")
	}
	// A count the payload could just cover at the minimum entry size,
	// over entries that are in fact longer: the walk must run out of
	// bytes, not out of bounds.
	short := (&GossipReply{Peers: []LandmarkVec{{Addr: "aaaaaaaaaa"}, {Addr: "bbbbbbbbbb"}}}).Encode(nil)
	short[len(short)-2*20-1] = 4 // two 20-byte entries follow: room for four minimal ones
	if !rejectsReply(short) {
		t.Fatal("peer count past the entries accepted")
	}
	// A hostile row count inside a sample entry.
	rows := (&GossipReply{Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{1}}}}).Encode(nil)
	copy(rows[len(rows)-16:], []byte{0x7F, 0xFF, 0xFF, 0xFF}) // Out count
	if !rejectsReply(rows) {
		t.Fatal("hostile row count in a sample entry accepted")
	}
	// NaN RTT is representable; the sentinel check is the peer's job.
	nan := (&GossipExchange{From: "p", RTTMillis: math.NaN()}).Encode(nil)
	if out, err := DecodeGossipExchange(nan); err != nil || !math.IsNaN(out.RTTMillis) {
		t.Fatalf("NaN RTT round trip = %+v, %v", out, err)
	}
	if v, err := ParseGossipExchange(nan); err != nil || !math.IsNaN(v.RTTMillis) {
		t.Fatalf("NaN RTT view = %+v, %v", v, err)
	}
}

// TestGossipViewsReadInPlace: the views hand out the payload's own
// bytes, every field equal to what was encoded, and walking the sample
// allocates nothing.
func TestGossipViewsReadInPlace(t *testing.T) {
	in := &GossipExchange{
		From: "peer-3:9000", Out: []float64{1, 2.5, 3}, In: []float64{4, 5, 6.25}, RTTMillis: 42.125,
		Peers: []LandmarkVec{
			{Addr: "peer-1:9000", Out: []float64{7, 8, 9}, In: []float64{10, 11, 12}},
			{Addr: "peer-9:9000"},
		},
	}
	payload := in.Encode(nil)
	v, err := ParseGossipExchange(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.From) != in.From || v.RTTMillis != in.RTTMillis ||
		!reflect.DeepEqual(v.Out.Slice(), in.Out) || !reflect.DeepEqual(v.In.Slice(), in.In) {
		t.Fatalf("view = %+v", v)
	}
	if &v.From[0] != &payload[2] {
		t.Fatal("From does not alias the payload")
	}
	if v.Peers.Len() != 2 {
		t.Fatalf("sample length %d, want 2", v.Peers.Len())
	}
	row := make([]float64, 3)
	allocs := testing.AllocsPerRun(100, func() {
		s := v.Peers
		for i := 0; ; i++ {
			addr, out, _, ok := s.Next()
			if !ok {
				if i != len(in.Peers) {
					t.Errorf("sample yielded %d entries, want %d", i, len(in.Peers))
				}
				return
			}
			if string(addr) != in.Peers[i].Addr || out.Len() != len(in.Peers[i].Out) {
				t.Errorf("entry %d = %q with %d rows", i, addr, out.Len())
			}
			if out.Len() == len(row) {
				out.CopyTo(row)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("walking the sample view allocates %.0f times", allocs)
	}
	if !reflect.DeepEqual(row, in.Peers[0].Out) {
		t.Fatalf("rows read in place = %v, want %v", row, in.Peers[0].Out)
	}
}

func TestGossipTypeStrings(t *testing.T) {
	if TypeGossipExchange.String() != "GossipExchange" || TypeGossipReply.String() != "GossipReply" {
		t.Fatalf("gossip MsgType names: %v, %v", TypeGossipExchange, TypeGossipReply)
	}
}

func FuzzDecodeGossipExchange(f *testing.F) {
	f.Add((&GossipExchange{
		From: "p:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 7,
		Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{5}, In: []float64{6}}},
	}).Encode(nil))
	f.Add([]byte{})
	// Peer count claims more entries than the payload carries.
	f.Add([]byte{0, 1, 'p', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeGossipExchange(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same shape.
		out, err := DecodeGossipExchange(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-encoded GossipExchange does not round-trip: %v", err)
		}
		if out.From != m.From || len(out.Peers) != len(m.Peers) {
			t.Fatalf("round trip drifted: %+v vs %+v", out, m)
		}
	})
}

func FuzzDecodeGossipReply(f *testing.F) {
	f.Add((&GossipReply{
		Applied: true, Out: []float64{1}, In: []float64{2},
		Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{3}, In: []float64{4}}},
	}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeGossipReply(data)
		if err != nil {
			return
		}
		out, err := DecodeGossipReply(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-encoded GossipReply does not round-trip: %v", err)
		}
		if out.Applied != m.Applied || len(out.Peers) != len(m.Peers) {
			t.Fatalf("round trip drifted: %+v vs %+v", out, m)
		}
	})
}

// The allocating decoders as they were before the gossip views: each
// field consumed and copied in turn, nothing shared with the view
// parser. They exist for FuzzGossipViewsMatchDecoders to compare
// against.
func refDecodeGossipExchange(b []byte) (*GossipExchange, error) {
	m := &GossipExchange{}
	var err error
	if m.From, b, err = consumeString(b); err != nil {
		return nil, err
	}
	if m.Out, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.In, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.RTTMillis, b, err = consumeFloat(b); err != nil {
		return nil, err
	}
	if m.Peers, err = refConsumePeerSample(b); err != nil {
		return nil, err
	}
	return m, nil
}

func refDecodeGossipReply(b []byte) (*GossipReply, error) {
	m := &GossipReply{}
	var err error
	if m.Applied, b, err = consumeBool(b); err != nil {
		return nil, err
	}
	if m.Out, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.In, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.Peers, err = refConsumePeerSample(b); err != nil {
		return nil, err
	}
	return m, nil
}

func refConsumePeerSample(b []byte) ([]LandmarkVec, error) {
	if len(b) < 4 {
		return nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxPayload/10 || 10*n > len(b) {
		return nil, ErrShortPayload
	}
	peers := make([]LandmarkVec, 0, min(n, 4096))
	var err error
	for i := 0; i < n; i++ {
		var p LandmarkVec
		if p.Addr, b, err = consumeString(b); err != nil {
			return nil, err
		}
		if p.Out, b, err = consumeFloats(b); err != nil {
			return nil, err
		}
		if p.In, b, err = consumeFloats(b); err != nil {
			return nil, err
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// sameFloats compares bit patterns, so NaNs a fuzzer invents compare
// equal to themselves.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePeers checks a materialized sample and a view walk against the
// reference decode, field by field.
func samePeers(t *testing.T, want, got []LandmarkVec, view PeerSample) {
	t.Helper()
	if len(got) != len(want) || view.Len() != len(want) {
		t.Fatalf("sample lengths: reference %d, decoder %d, view %d", len(want), len(got), view.Len())
	}
	for i, w := range want {
		addr, out, in, ok := view.Next()
		if !ok {
			t.Fatalf("view ran out at entry %d of %d", i, len(want))
		}
		if got[i].Addr != w.Addr || !sameFloats(got[i].Out, w.Out) || !sameFloats(got[i].In, w.In) {
			t.Fatalf("decoder entry %d = %+v, reference %+v", i, got[i], w)
		}
		if string(addr) != w.Addr || !sameFloats(out.Slice(), w.Out) || !sameFloats(in.Slice(), w.In) {
			t.Fatalf("view entry %d = %q %v %v, reference %+v", i, addr, out.Slice(), in.Slice(), w)
		}
	}
	if _, _, _, ok := view.Next(); ok {
		t.Fatal("view yields entries past the reference's count")
	}
}

// gossipMatchesReference reads data as either gossip message: the view,
// the materializing decoder and the independent reference decoder must
// accept or reject together and yield equal fields.
func gossipMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	refEx, refErr := refDecodeGossipExchange(data)
	ex, err := DecodeGossipExchange(data)
	exView, viewErr := ParseGossipExchange(data)
	if (refErr == nil) != (err == nil) || (refErr == nil) != (viewErr == nil) {
		t.Fatalf("GossipExchange: reference %v, decoder %v, view %v", refErr, err, viewErr)
	}
	if refErr == nil {
		if ex.From != refEx.From || string(exView.From) != refEx.From ||
			math.Float64bits(ex.RTTMillis) != math.Float64bits(refEx.RTTMillis) ||
			math.Float64bits(exView.RTTMillis) != math.Float64bits(refEx.RTTMillis) ||
			!sameFloats(ex.Out, refEx.Out) || !sameFloats(ex.In, refEx.In) ||
			!sameFloats(exView.Out.Slice(), refEx.Out) || !sameFloats(exView.In.Slice(), refEx.In) {
			t.Fatalf("GossipExchange: reference %+v, decoder %+v, view %+v", refEx, ex, exView)
		}
		samePeers(t, refEx.Peers, ex.Peers, exView.Peers)
	}

	refRep, refErr := refDecodeGossipReply(data)
	rep, err := DecodeGossipReply(data)
	repView, viewErr := ParseGossipReply(data)
	if (refErr == nil) != (err == nil) || (refErr == nil) != (viewErr == nil) {
		t.Fatalf("GossipReply: reference %v, decoder %v, view %v", refErr, err, viewErr)
	}
	if refErr == nil {
		if rep.Applied != refRep.Applied || repView.Applied != refRep.Applied ||
			!sameFloats(rep.Out, refRep.Out) || !sameFloats(rep.In, refRep.In) ||
			!sameFloats(repView.Out.Slice(), refRep.Out) || !sameFloats(repView.In.Slice(), refRep.In) {
			t.Fatalf("GossipReply: reference %+v, decoder %+v, view %+v", refRep, rep, repView)
		}
		samePeers(t, refRep.Peers, rep.Peers, repView.Peers)
	}
}

// FuzzGossipViewsMatchDecoders is the differential target for the
// gossip parsers: gossipMatchesReference on any payload.
func FuzzGossipViewsMatchDecoders(f *testing.F) {
	peers := []LandmarkVec{{Addr: "q:2", Out: []float64{5, math.NaN()}, In: []float64{6, 7}}, {Addr: "r:3"}}
	f.Add((&GossipExchange{From: "p:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 7, Peers: peers}).Encode(nil))
	f.Add((&GossipReply{Applied: true, Out: []float64{1}, In: []float64{2}, Peers: peers}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 'p', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(gossipMatchesReference)
}
