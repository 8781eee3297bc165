package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, TypePing, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypePing || !bytes.Equal(got, payload) {
		t.Fatalf("got type %v payload %v", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeGetInfo, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeGetInfo || len(got) != 0 {
		t.Fatalf("got type %v payload %v", typ, got)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeAck, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	appended := AppendFrame(nil, TypeAck, []byte("xy"))
	if !bytes.Equal(buf.Bytes(), appended) {
		t.Fatalf("WriteFrame %x != AppendFrame %x", buf.Bytes(), appended)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	raw := AppendFrame(nil, TypePing, []byte{0})
	raw[0] = 0xFF
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v want ErrBadMagic", err)
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	raw := AppendFrame(nil, TypePing, []byte{0})
	raw[2] = 99
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v want ErrBadVersion", err)
	}
}

func TestReadFrameTooBig(t *testing.T) {
	raw := AppendFrame(nil, TypePing, []byte{0})
	raw[4], raw[5], raw[6], raw[7] = 0xFF, 0xFF, 0xFF, 0xFF
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v want ErrFrameTooBig", err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("err = %v want bare io.EOF", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	raw := AppendFrame(nil, TypePing, []byte{1, 2, 3, 4})
	_, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-2]))
	if err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	big := make([]byte, MaxPayload+1)
	if err := WriteFrame(io.Discard, TypePing, big); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v want ErrFrameTooBig", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := &Error{Code: CodeNotFound, Text: "no such host"}
	out, err := DecodeError(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Code != in.Code || out.Text != in.Text {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	if !strings.Contains(out.Error(), "no such host") {
		t.Fatalf("Error() = %q", out.Error())
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	p, err := DecodePing((&Ping{Token: 0xDEADBEEF}).Encode(nil))
	if err != nil || p.Token != 0xDEADBEEF {
		t.Fatalf("ping round trip: %v %v", p, err)
	}
	q, err := DecodePong((&Pong{Token: 42}).Encode(nil))
	if err != nil || q.Token != 42 {
		t.Fatalf("pong round trip: %v %v", q, err)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	in := &Info{Dim: 10, NumLandmarks: 20, Algorithm: "SVD", ModelReady: true, Epoch: 7}
	out, err := DecodeInfo(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

// TestEpochRoundTrip checks the epoch stamp survives every message that
// carries one.
func TestEpochRoundTrip(t *testing.T) {
	const e, rev = uint64(42), uint64(5)
	if m, err := DecodeModel((&Model{Dim: 2, Algorithm: "SVD", Epoch: e, Rev: rev}).Encode(nil)); err != nil || m.Epoch != e || m.Rev != rev {
		t.Fatalf("Model epoch/rev: %+v %v", m, err)
	}
	if m, err := ParseRegisterHost((&RegisterHost{Addr: "h", Out: []float64{1}, In: []float64{2}, Epoch: e}).Encode(nil)); err != nil || m.Epoch != e {
		t.Fatalf("RegisterHost epoch: %+v %v", m, err)
	}
	if m, err := DecodeVectors((&Vectors{Found: true, Out: []float64{1}, In: []float64{2}, Epoch: e}).Encode(nil)); err != nil || m.Epoch != e {
		t.Fatalf("Vectors epoch: %+v %v", m, err)
	}
	if m, err := DecodeDistances((&Distances{SrcFound: true, Results: []DistResult{{Found: true, Millis: 1}}, Epoch: e}).Encode(nil)); err != nil || m.Epoch != e {
		t.Fatalf("Distances epoch: %+v %v", m, err)
	}
	if m, err := DecodeNeighbors((&Neighbors{SrcFound: true, Entries: []NeighborEntry{{Addr: "n", Millis: 1}}, Epoch: e}).Encode(nil)); err != nil || m.Epoch != e {
		t.Fatalf("Neighbors epoch: %+v %v", m, err)
	}
}

// TestEpochBackwardCompat simulates frames from a pre-epoch peer: the
// epoch is a trailing field, so stripping the final 8 bytes of a modern
// encoding yields exactly the old layout. Decoders must accept it and
// read epoch 0, and every other field must come through intact. Model
// carries Rev after its Epoch: stripping 8 bytes fakes a pre-Rev peer
// (epoch kept, rev 0), stripping 16 a pre-epoch one.
func TestEpochBackwardCompat(t *testing.T) {
	strip := func(b []byte) []byte { return b[:len(b)-8] }

	info, err := DecodeInfo(strip((&Info{Dim: 3, NumLandmarks: 4, Algorithm: "NMF", ModelReady: true, Epoch: 9}).Encode(nil)))
	if err != nil || info.Epoch != 0 || info.Dim != 3 || !info.ModelReady {
		t.Fatalf("Info compat: %+v %v", info, err)
	}
	modern := (&Model{
		Dim: 1, Algorithm: "SVD", Epoch: 9, Rev: 4,
		Landmarks: []LandmarkVec{{Addr: "a", Out: []float64{1}, In: []float64{2}}},
	}).Encode(nil)
	model, err := DecodeModel(strip(modern))
	if err != nil || model.Epoch != 9 || model.Rev != 0 || len(model.Landmarks) != 1 || model.Landmarks[0].Out[0] != 1 {
		t.Fatalf("pre-Rev Model compat: %+v %v", model, err)
	}
	model, err = DecodeModel(strip(strip(modern)))
	if err != nil || model.Epoch != 0 || model.Rev != 0 || len(model.Landmarks) != 1 || model.Landmarks[0].Out[0] != 1 {
		t.Fatalf("Model compat: %+v %v", model, err)
	}
	reg, err := ParseRegisterHost(strip((&RegisterHost{Addr: "h", Out: []float64{1}, In: []float64{2}, Epoch: 9}).Encode(nil)))
	if err != nil || reg.Epoch != 0 || string(reg.Addr) != "h" || reg.In.Len() != 1 || reg.In.At(0) != 2 {
		t.Fatalf("RegisterHost compat: %+v %v", reg, err)
	}
	vec, err := DecodeVectors(strip((&Vectors{Found: true, Out: []float64{1}, In: []float64{2}, Epoch: 9}).Encode(nil)))
	if err != nil || vec.Epoch != 0 || !vec.Found {
		t.Fatalf("Vectors compat: %+v %v", vec, err)
	}
	dists, err := DecodeDistances(strip((&Distances{SrcFound: true, Results: []DistResult{{Found: true, Millis: 5}}, Epoch: 9}).Encode(nil)))
	if err != nil || dists.Epoch != 0 || !dists.SrcFound || dists.Results[0].Millis != 5 {
		t.Fatalf("Distances compat: %+v %v", dists, err)
	}
	nbrs, err := DecodeNeighbors(strip((&Neighbors{SrcFound: true, Entries: []NeighborEntry{{Addr: "n", Millis: 5}}, Epoch: 9}).Encode(nil)))
	if err != nil || nbrs.Epoch != 0 || len(nbrs.Entries) != 1 {
		t.Fatalf("Neighbors compat: %+v %v", nbrs, err)
	}
}

func TestModelRoundTrip(t *testing.T) {
	in := &Model{
		Dim:       3,
		Algorithm: "NMF",
		Landmarks: []LandmarkVec{
			{Addr: "lm-0:4100", Out: []float64{1, 2, 3}, In: []float64{4, 5, 6}},
			{Addr: "lm-1:4100", Out: []float64{-1, 0.5, math.Pi}, In: []float64{0, 0, 0}},
		},
	}
	out, err := DecodeModel(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim != in.Dim || out.Algorithm != in.Algorithm || len(out.Landmarks) != 2 {
		t.Fatalf("round trip header %+v", out)
	}
	for i := range in.Landmarks {
		if out.Landmarks[i].Addr != in.Landmarks[i].Addr {
			t.Fatalf("landmark %d addr %q", i, out.Landmarks[i].Addr)
		}
		for k := range in.Landmarks[i].Out {
			if out.Landmarks[i].Out[k] != in.Landmarks[i].Out[k] ||
				out.Landmarks[i].In[k] != in.Landmarks[i].In[k] {
				t.Fatalf("landmark %d vectors differ", i)
			}
		}
	}
}

func TestReportRTTRoundTrip(t *testing.T) {
	in := &ReportRTT{
		From: "lm-3:4100",
		Entries: []RTTEntry{
			{To: "lm-0:4100", RTTMillis: 12.5},
			{To: "lm-1:4100", RTTMillis: 80.25},
		},
	}
	out, err := DecodeReportRTT(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || len(out.Entries) != 2 ||
		out.Entries[0] != in.Entries[0] || out.Entries[1] != in.Entries[1] {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

func TestRegisterHostVectorsDistanceRoundTrip(t *testing.T) {
	rh := &RegisterHost{Addr: "host-9", Out: []float64{1.5}, In: []float64{-2.5}}
	rh2, err := ParseRegisterHost(rh.Encode(nil))
	if err != nil || string(rh2.Addr) != rh.Addr || rh2.Out.Len() != 1 || rh2.Out.At(0) != 1.5 || rh2.In.Len() != 1 || rh2.In.At(0) != -2.5 {
		t.Fatalf("RegisterHost round trip: %+v %v", rh2, err)
	}
	gv, err := GetVectorsView((&GetVectors{Addr: "host-9"}).Encode(nil))
	if err != nil || string(gv) != "host-9" {
		t.Fatalf("GetVectors round trip: %q %v", gv, err)
	}
	v := &Vectors{Found: true, Out: []float64{9}, In: []float64{8}}
	v2, err := DecodeVectors(v.Encode(nil))
	if err != nil || !v2.Found || v2.Out[0] != 9 || v2.In[0] != 8 {
		t.Fatalf("Vectors round trip: %+v %v", v2, err)
	}
	from, to, err := QueryDistView((&QueryDist{From: "a", To: "b"}).Encode(nil))
	if err != nil || string(from) != "a" || string(to) != "b" {
		t.Fatalf("QueryDist round trip: %q %q %v", from, to, err)
	}
	dd, err := ParseDistance((&Distance{Found: true, Millis: 31.25}).Encode(nil))
	if err != nil || !dd.Found || dd.Millis != 31.25 {
		t.Fatalf("Distance round trip: %+v %v", dd, err)
	}
}

func TestQueryBatchRoundTrip(t *testing.T) {
	in := &QueryBatch{From: "h0", Targets: []string{"a", "b", "c", ""}}
	out, err := DecodeQueryBatch(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || len(out.Targets) != len(in.Targets) {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	for i := range in.Targets {
		if out.Targets[i] != in.Targets[i] {
			t.Fatalf("target %d: %q != %q", i, out.Targets[i], in.Targets[i])
		}
	}
	// Empty target list is valid.
	empty, err := DecodeQueryBatch((&QueryBatch{From: "x"}).Encode(nil))
	if err != nil || empty.From != "x" || len(empty.Targets) != 0 {
		t.Fatalf("empty batch: %+v %v", empty, err)
	}
}

// TestQueryBatchView checks the zero-copy parser's contract: the views
// alias the payload, a recycled slice is reused rather than regrown, and
// a batch over the limit is refused from its count field alone.
func TestQueryBatchView(t *testing.T) {
	payload := (&QueryBatch{From: "h0", Targets: []string{"a", "", "ccc"}}).Encode(nil)
	from, targets, err := QueryBatchView(payload, 3, nil)
	if err != nil || string(from) != "h0" || len(targets) != 3 ||
		string(targets[0]) != "a" || len(targets[1]) != 0 || string(targets[2]) != "ccc" {
		t.Fatalf("view = %q %q %v", from, targets, err)
	}
	payload[len(payload)-1] = 'X'
	if string(targets[2]) != "ccX" {
		t.Fatal("target views do not alias the payload")
	}
	_, again, err := QueryBatchView(payload, 3, targets)
	if err != nil || &again[0] != &targets[0] {
		t.Fatalf("recycled slice not reused (err %v)", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { QueryBatchView(payload, 3, targets) }); allocs != 0 { //nolint:errcheck
		t.Fatalf("view into a recycled slice allocates %.0f times", allocs)
	}
	_, _, err = QueryBatchView(payload, 2, nil)
	if err == nil || err.Error() != "batch names 3 targets, limit 2" {
		t.Fatalf("over-limit batch: err = %v", err)
	}
	// The limit is judged on the count field: the targets behind it are
	// never walked, so a malformed one is not what gets reported.
	payload[len(payload)-5] = 0xFF // last target's length prefix now overruns
	if _, _, err = QueryBatchView(payload, 3, nil); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("malformed target under the limit: err = %v", err)
	}
	if _, _, err = QueryBatchView(payload, 2, nil); err == nil || errors.Is(err, ErrShortPayload) {
		t.Fatalf("malformed target over the limit: err = %v, want the limit refusal", err)
	}
}

func TestDistancesRoundTrip(t *testing.T) {
	in := &Distances{SrcFound: true, Results: []DistResult{
		{Found: true, Millis: 12.5},
		{Found: false, Millis: 0},
		{Found: true, Millis: math.Inf(1)},
	}}
	out, err := DecodeDistances(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcFound != in.SrcFound || len(out.Results) != len(in.Results) {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	for i := range in.Results {
		if out.Results[i] != in.Results[i] {
			t.Fatalf("result %d: %+v != %+v", i, out.Results[i], in.Results[i])
		}
	}
}

func TestQueryKNNNeighborsRoundTrip(t *testing.T) {
	from, k, err := QueryKNNView((&QueryKNN{From: "h7", K: 25}).Encode(nil))
	if err != nil || string(from) != "h7" || k != 25 {
		t.Fatalf("QueryKNN round trip: %q %d %v", from, k, err)
	}
	in := &Neighbors{SrcFound: true, Entries: []NeighborEntry{
		{Addr: "m1", Millis: 3.5},
		{Addr: "m2", Millis: 9},
	}}
	out, err := DecodeNeighbors(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.SrcFound || len(out.Entries) != 2 ||
		out.Entries[0] != in.Entries[0] || out.Entries[1] != in.Entries[1] {
		t.Fatalf("Neighbors round trip: %+v", out)
	}
}

// TestQueryDecodersRejectOversizedCounts feeds payloads whose length
// prefix claims far more entries than the payload could hold; decoders
// must error without attempting the implied giant allocation. The
// counts under MaxPayload/10 are the ones a limit on the count alone
// lets through (what such an allocation costs is
// TestDecodersBoundAllocation's business).
func TestQueryDecodersRejectOversizedCounts(t *testing.T) {
	for _, n := range []uint32{0xFFFFFFFF, MaxPayload/10 - 1, 4_000_000, 65536} {
		huge := binary.BigEndian.AppendUint32([]byte{0, 0}, n) // empty From string
		if _, err := DecodeQueryBatch(huge); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("QueryBatch count %d: err = %v", n, err)
		}
		if _, err := DecodeReportRTT(huge); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("ReportRTT count %d: err = %v", n, err)
		}
		hugeDist := binary.BigEndian.AppendUint32([]byte{1}, n)
		if _, err := DecodeDistances(hugeDist); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("Distances count %d: err = %v", n, err)
		}
		if _, err := DecodeNeighbors(hugeDist); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("Neighbors count %d: err = %v", n, err)
		}
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	// Every decoder must reject every strict prefix of a valid payload
	// (or decode it to the same value, never panic or over-read).
	full := map[string][]byte{
		"Error":        (&Error{Code: 1, Text: "x"}).Encode(nil),
		"Ping":         (&Ping{Token: 1}).Encode(nil),
		"Info":         (&Info{Dim: 1, NumLandmarks: 2, Algorithm: "SVD", ModelReady: true}).Encode(nil),
		"Model":        (&Model{Dim: 1, Algorithm: "SVD", Landmarks: []LandmarkVec{{Addr: "a", Out: []float64{1}, In: []float64{2}}}}).Encode(nil),
		"ReportRTT":    (&ReportRTT{From: "a", Entries: []RTTEntry{{To: "b", RTTMillis: 3}}}).Encode(nil),
		"RegisterHost": (&RegisterHost{Addr: "a", Out: []float64{1}, In: []float64{2}}).Encode(nil),
		"Vectors":      (&Vectors{Found: true, Out: []float64{1}, In: []float64{2}}).Encode(nil),
		"QueryDist":    (&QueryDist{From: "a", To: "b"}).Encode(nil),
		"Distance":     (&Distance{Found: true, Millis: 1}).Encode(nil),
		"QueryBatch":   (&QueryBatch{From: "a", Targets: []string{"b", "c"}}).Encode(nil),
		"Distances":    (&Distances{SrcFound: true, Results: []DistResult{{Found: true, Millis: 1}}}).Encode(nil),
		"QueryKNN":     (&QueryKNN{From: "a", K: 3}).Encode(nil),
		"Neighbors":    (&Neighbors{SrcFound: true, Entries: []NeighborEntry{{Addr: "b", Millis: 2}}}).Encode(nil),
	}
	decoders := map[string]func([]byte) error{
		"Error":        func(b []byte) error { _, err := DecodeError(b); return err },
		"Ping":         func(b []byte) error { _, err := DecodePing(b); return err },
		"Info":         func(b []byte) error { _, err := DecodeInfo(b); return err },
		"Model":        func(b []byte) error { _, err := DecodeModel(b); return err },
		"ReportRTT":    func(b []byte) error { _, err := DecodeReportRTT(b); return err },
		"RegisterHost": func(b []byte) error { _, err := ParseRegisterHost(b); return err },
		"Vectors":      func(b []byte) error { _, err := DecodeVectors(b); return err },
		"QueryDist":    func(b []byte) error { _, _, err := QueryDistView(b); return err },
		"Distance":     func(b []byte) error { _, err := ParseDistance(b); return err },
		"QueryBatch":   func(b []byte) error { _, err := DecodeQueryBatch(b); return err },
		"Distances":    func(b []byte) error { _, err := DecodeDistances(b); return err },
		"QueryKNN":     func(b []byte) error { _, _, err := QueryKNNView(b); return err },
		"Neighbors":    func(b []byte) error { _, err := DecodeNeighbors(b); return err },
	}
	for name, payload := range full {
		dec := decoders[name]
		if err := dec(payload); err != nil {
			t.Fatalf("%s: full payload rejected: %v", name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic at cut %d: %v", name, cut, r)
					}
				}()
				_ = dec(payload[:cut]) // must not panic; error is fine
			}()
		}
	}
}

// Property: random Model messages survive an encode/decode round trip.
func TestPropModelRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5)
		d := 1 + rng.Intn(6)
		in := &Model{Dim: uint32(d), Algorithm: "SVD"}
		for i := 0; i < n; i++ {
			lv := LandmarkVec{Addr: randString(rng), Out: make([]float64, d), In: make([]float64, d)}
			for k := 0; k < d; k++ {
				lv.Out[k] = rng.NormFloat64()
				lv.In[k] = rng.NormFloat64()
			}
			in.Landmarks = append(in.Landmarks, lv)
		}
		out, err := DecodeModel(in.Encode(nil))
		if err != nil || out.Dim != in.Dim || len(out.Landmarks) != len(in.Landmarks) {
			return false
		}
		for i := range in.Landmarks {
			if out.Landmarks[i].Addr != in.Landmarks[i].Addr {
				return false
			}
			for k := range in.Landmarks[i].Out {
				if out.Landmarks[i].Out[k] != in.Landmarks[i].Out[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: frames of random type and payload survive a round trip through
// a stream containing several frames back to back.
func TestPropFrameStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(5)
		var buf bytes.Buffer
		types := make([]MsgType, count)
		payloads := make([][]byte, count)
		for i := 0; i < count; i++ {
			types[i] = MsgType(rng.Intn(14))
			payloads[i] = make([]byte, rng.Intn(64))
			rng.Read(payloads[i])
			if err := WriteFrame(&buf, types[i], payloads[i]); err != nil {
				return false
			}
		}
		for i := 0; i < count; i++ {
			typ, p, err := ReadFrame(&buf)
			if err != nil || typ != types[i] || !bytes.Equal(p, payloads[i]) {
				return false
			}
		}
		_, _, err := ReadFrame(&buf)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypePing.String() != "Ping" || TypeModel.String() != "Model" {
		t.Fatal("known types must have names")
	}
	if !strings.Contains(MsgType(0xEE).String(), "0xee") {
		t.Fatalf("unknown type = %q", MsgType(0xEE).String())
	}
}

func randString(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
