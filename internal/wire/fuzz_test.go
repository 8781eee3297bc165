package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// Fuzzing targets: every decoder must be total — no panics, no unbounded
// allocation — for arbitrary byte input. go test runs the seed corpus;
// `go test -fuzz FuzzDecodeModel ./internal/wire` explores further.

func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, TypePing, []byte{1, 2, 3}))
	f.Add(AppendFrame(nil, TypeModel, (&Model{Dim: 2, Algorithm: "SVD"}).Encode(nil)))
	f.Add([]byte{})
	f.Add([]byte{0x1D, 0xE5})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed frame must round-trip.
		again := AppendFrame(nil, typ, payload)
		typ2, payload2, err := ReadFrame(bytes.NewReader(again))
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("reserialized frame does not round-trip: %v", err)
		}
	})
}

func FuzzDecodeModel(f *testing.F) {
	f.Add((&Model{Dim: 3, Algorithm: "NMF", Epoch: 2, Rev: 1, Landmarks: []LandmarkVec{
		{Addr: "a", Out: []float64{1, 2, 3}, In: []float64{4, 5, 6}},
	}}).Encode(nil))
	// A landmark vector shorter than Dim: refused, not left for a
	// consumer's SetRow to panic on.
	f.Add((&Model{Dim: 2, Algorithm: "SVD", Epoch: 1, Landmarks: []LandmarkVec{
		{Addr: "a", Out: []float64{1}, In: []float64{1, 2}},
	}}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil {
			return
		}
		for _, l := range m.Landmarks {
			if len(l.Out) != int(m.Dim) || len(l.In) != int(m.Dim) {
				t.Fatalf("decoded landmark %q with vector dims %d/%d under Dim %d", l.Addr, len(l.Out), len(l.In), m.Dim)
			}
		}
		// Decoded models re-encode and re-decode to the same value.
		out, err := DecodeModel(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if out.Dim != m.Dim || len(out.Landmarks) != len(m.Landmarks) || out.Epoch != m.Epoch || out.Rev != m.Rev {
			t.Fatal("model round-trip mismatch")
		}
	})
}

func FuzzDecodeReportRTT(f *testing.F) {
	f.Add((&ReportRTT{From: "lm", Entries: []RTTEntry{{To: "x", RTTMillis: 3.5}}}).Encode(nil))
	f.Add([]byte{0, 1, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeReportRTT(data); err != nil {
			return
		}
	})
}

func FuzzDecodeQueryBatch(f *testing.F) {
	f.Add((&QueryBatch{From: "h0", Targets: []string{"a", "b"}}).Encode(nil))
	// Truncated: count claims two targets, only one present.
	valid := (&QueryBatch{From: "h0", Targets: []string{"a", "b"}}).Encode(nil)
	f.Add(valid[:len(valid)-2])
	// Oversized count with no payload behind it.
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeQueryBatch(data)
		if err != nil {
			return
		}
		// Successfully decoded messages must re-encode and re-decode to
		// the same value.
		out, err := DecodeQueryBatch(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if out.From != m.From || len(out.Targets) != len(m.Targets) {
			t.Fatal("QueryBatch round-trip mismatch")
		}
	})
}

// refDecodeQueryBatch is the allocating decoder as it was before
// QueryBatchView: each target consumed and copied in turn, nothing
// shared with the view parser. FuzzQueryBatchView compares against it.
func refDecodeQueryBatch(b []byte) (*QueryBatch, error) {
	m := &QueryBatch{}
	var err error
	if m.From, b, err = consumeString(b); err != nil {
		return nil, err
	}
	if len(b) < 4 {
		return nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxPayload/2 || 2*n > len(b) {
		return nil, ErrShortPayload
	}
	m.Targets = make([]string, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var t string
		if t, b, err = consumeString(b); err != nil {
			return nil, err
		}
		m.Targets = append(m.Targets, t)
	}
	return m, nil
}

// queryBatchMatchesReference: on any payload the view, the materializing
// decoder built on it and the independent reference decoder fail with
// the same error or yield the same fields; and under a limit the view
// refuses exactly the well-formed batches that name more targets than it.
func queryBatchMatchesReference(t *testing.T, data []byte, limit int) {
	t.Helper()
	ref, refErr := refDecodeQueryBatch(data)
	dec, err := DecodeQueryBatch(data)
	from, views, viewErr := QueryBatchView(data, MaxPayload/2, nil)
	if !errors.Is(err, refErr) || !errors.Is(viewErr, refErr) {
		t.Fatalf("reference %v, decoder %v, view %v", refErr, err, viewErr)
	}
	if refErr != nil {
		return
	}
	if dec.From != ref.From || string(from) != ref.From || len(dec.Targets) != len(ref.Targets) || len(views) != len(ref.Targets) {
		t.Fatalf("reference %+v, decoder %+v, view %q %q", ref, dec, from, views)
	}
	for i, want := range ref.Targets {
		if dec.Targets[i] != want || string(views[i]) != want {
			t.Fatalf("target %d: reference %q, decoder %q, view %q", i, want, dec.Targets[i], views[i])
		}
	}
	// The same frame under a limit, into a recycled slice.
	_, limited, err := QueryBatchView(data, limit, views)
	if over := len(ref.Targets) > limit; over != (err != nil) {
		t.Fatalf("%d targets under limit %d: err %v", len(ref.Targets), limit, err)
	}
	if err == nil && len(limited) != len(ref.Targets) {
		t.Fatalf("limited view holds %d targets, want %d", len(limited), len(ref.Targets))
	}
}

// FuzzQueryBatchView is the differential target for the one QueryBatch
// parser: queryBatchMatchesReference on any payload and limit.
func FuzzQueryBatchView(f *testing.F) {
	valid := (&QueryBatch{From: "h0", Targets: []string{"a", "", "ccc"}}).Encode(nil)
	f.Add(valid, 3)
	f.Add(valid, 2)
	f.Add(valid[:len(valid)-2], 8)
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, 8)
	f.Add([]byte{}, 0)
	f.Fuzz(queryBatchMatchesReference)
}

func FuzzDecodeDistances(f *testing.F) {
	f.Add((&Distances{SrcFound: true, Results: []DistResult{{Found: true, Millis: 1.5}}, Epoch: 3}).Encode(nil))
	valid := (&Distances{Results: []DistResult{{Found: true, Millis: 1}, {Found: true, Millis: 2}}}).Encode(nil)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeDistances(data)
		if err != nil {
			return
		}
		out, err := DecodeDistances(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if out.SrcFound != m.SrcFound || len(out.Results) != len(m.Results) || out.Epoch != m.Epoch {
			t.Fatal("Distances round-trip mismatch")
		}
	})
}

// FuzzDecodeRegisterHost: a payload that decodes re-encodes to one that
// decodes to the same address, the same bits in both rows and the same
// epoch. The decoder is ParseRegisterHost copied out, so this holds the
// leader's view too.
func FuzzDecodeRegisterHost(f *testing.F) {
	f.Add((&RegisterHost{Addr: "h1", Out: []float64{1, 2}, In: []float64{3, 4}, Epoch: 5}).Encode(nil))
	f.Add((&RegisterHost{Addr: "h2", Out: []float64{math.NaN(), math.Inf(-1)}, In: []float64{}}).Encode(nil))
	f.Add((&RegisterHost{Out: []float64{1}, In: []float64{2}, Epoch: 1}).Encode(nil)[:20])
	f.Add([]byte{0, 1, 'a'})
	f.Add([]byte{0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeRegisterHost(data)
		if err != nil {
			return
		}
		out, err := DecodeRegisterHost(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		sameBits := func(a, b []float64) bool {
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
		if out.Addr != m.Addr || !sameBits(out.Out, m.Out) || !sameBits(out.In, m.In) || out.Epoch != m.Epoch {
			t.Fatalf("RegisterHost round-trip mismatch: %+v, then %+v", m, out)
		}
	})
}

func FuzzDecodeQueryKNN(f *testing.F) {
	f.Add((&QueryKNN{From: "h0", K: 10}).Encode(nil))
	f.Add([]byte{0, 1, 'a'}) // string ok, K truncated
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		from, k, err := QueryKNNView(data)
		if err != nil {
			return
		}
		m := &QueryKNN{From: string(from), K: k}
		from2, k2, err := QueryKNNView(m.Encode(nil))
		if err != nil || string(from2) != m.From || k2 != k {
			t.Fatalf("QueryKNN round-trip mismatch: %q %d %v", from2, k2, err)
		}
	})
}

func FuzzDecodeNeighbors(f *testing.F) {
	f.Add((&Neighbors{SrcFound: true, Entries: []NeighborEntry{{Addr: "m", Millis: 2}}, Epoch: 4}).Encode(nil))
	valid := (&Neighbors{Entries: []NeighborEntry{{Addr: "m", Millis: 2}}}).Encode(nil)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeNeighbors(data)
		if err != nil {
			return
		}
		out, err := DecodeNeighbors(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if out.SrcFound != m.SrcFound || len(out.Entries) != len(m.Entries) || out.Epoch != m.Epoch {
			t.Fatal("Neighbors round-trip mismatch")
		}
	})
}

func FuzzDecodeError(f *testing.F) {
	f.Add((&Error{Code: CodeStaleEpoch, Text: "stale"}).Encode(nil))
	f.Add([]byte{0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeError(data)
		if err != nil {
			return
		}
		out, err := DecodeError(m.Encode(nil))
		if err != nil || out.Code != m.Code || out.Text != m.Text {
			t.Fatalf("Error round-trip mismatch: %+v %v", out, err)
		}
	})
}

func FuzzDecodePingPong(f *testing.F) {
	f.Add((&Ping{Token: 7}).Encode(nil))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodePing(data); err == nil {
			if out, err := DecodePing(m.Encode(nil)); err != nil || out.Token != m.Token {
				t.Fatalf("Ping round-trip mismatch: %+v %v", out, err)
			}
		}
		if m, err := DecodePong(data); err == nil {
			if out, err := DecodePong(m.Encode(nil)); err != nil || out.Token != m.Token {
				t.Fatalf("Pong round-trip mismatch: %+v %v", out, err)
			}
		}
	})
}

func FuzzDecodeInfo(f *testing.F) {
	f.Add((&Info{Dim: 8, NumLandmarks: 20, Algorithm: "SVD", ModelReady: true, Epoch: 3}).Encode(nil))
	// Epoch is a version-tolerant trailing field: an epochless payload
	// must decode as epoch 0.
	full := (&Info{Dim: 8, NumLandmarks: 20, Algorithm: "NMF", Epoch: 9}).Encode(nil)
	f.Add(full[:len(full)-8])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeInfo(data)
		if err != nil {
			return
		}
		out, err := DecodeInfo(m.Encode(nil))
		if err != nil || out.Dim != m.Dim || out.NumLandmarks != m.NumLandmarks ||
			out.Algorithm != m.Algorithm || out.ModelReady != m.ModelReady || out.Epoch != m.Epoch {
			t.Fatalf("Info round-trip mismatch: %+v vs %+v (%v)", out, m, err)
		}
	})
}

func FuzzDecodeGetVectors(f *testing.F) {
	f.Add((&GetVectors{Addr: "host-1"}).Encode(nil))
	f.Add([]byte{0, 5, 'a'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		addr, err := GetVectorsView(data)
		if err != nil {
			return
		}
		m := &GetVectors{Addr: string(addr)}
		if out, err := GetVectorsView(m.Encode(nil)); err != nil || string(out) != m.Addr {
			t.Fatalf("GetVectors round-trip mismatch: %q %v", out, err)
		}
	})
}

func FuzzDecodeVectors(f *testing.F) {
	f.Add((&Vectors{Found: true, Out: []float64{1, 2}, In: []float64{3, 4}, Epoch: 2}).Encode(nil))
	// Count claims more floats than the payload carries.
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeVectors(data)
		if err != nil {
			return
		}
		out, err := DecodeVectors(m.Encode(nil))
		if err != nil || out.Found != m.Found || len(out.Out) != len(m.Out) ||
			len(out.In) != len(m.In) || out.Epoch != m.Epoch {
			t.Fatalf("Vectors round-trip mismatch: %+v %v", out, err)
		}
	})
}

func FuzzDecodeQueryDist(f *testing.F) {
	f.Add((&QueryDist{From: "a", To: "b"}).Encode(nil))
	f.Add([]byte{0, 1, 'a', 0, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		from, to, err := QueryDistView(data)
		if err != nil {
			return
		}
		m := &QueryDist{From: string(from), To: string(to)}
		if from2, to2, err := QueryDistView(m.Encode(nil)); err != nil || string(from2) != m.From || string(to2) != m.To {
			t.Fatalf("QueryDist round-trip mismatch: %q %q %v", from2, to2, err)
		}
	})
}

func FuzzDecodeDistance(f *testing.F) {
	f.Add((&Distance{Found: true, Millis: 12.5}).Encode(nil))
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseDistance(data)
		if err != nil {
			return
		}
		out, err := ParseDistance(m.Encode(nil))
		if err != nil || out.Found != m.Found {
			t.Fatalf("Distance round-trip mismatch: %+v %v", out, err)
		}
		// NaN-tolerant value comparison: the wire carries raw IEEE bits.
		if out.Found && out.Millis != m.Millis && !(out.Millis != out.Millis && m.Millis != m.Millis) {
			t.Fatalf("Distance value mismatch: %v vs %v", out.Millis, m.Millis)
		}
	})
}

func FuzzFrameStream(f *testing.F) {
	var stream []byte
	stream = AppendFrame(stream, TypePing, []byte{9})
	stream = AppendFrame(stream, TypeAck, nil)
	f.Add(stream)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ { // bounded: reject pathological loops
			_, _, err := ReadFrame(r)
			if err == io.EOF || err != nil {
				return
			}
		}
	})
}
