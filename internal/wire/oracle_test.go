package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The four hand-threaded (value, rest, err) primitives every decoder was
// built from before Reader, kept as they were. The reference decoders in
// gossip_test.go and fuzz_test.go are written on them, so the oracle the
// cursor is compared against shares no code with it.

func consumeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrShortPayload
	}
	return string(b[:n]), b[n:], nil
}

func consumeFloats(b []byte) ([]float64, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxPayload/8 || len(b) < 8*n {
		return nil, nil, ErrShortPayload
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:], nil
}

func consumeFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortPayload
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

func consumeBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrShortPayload
	}
	return b[0] != 0, b[1:], nil
}

// TestReaderMatchesOracle puts the cursor's decoders and views beside
// the reference decoders on what a fuzzer only reaches by luck: every
// truncation of a valid message, and 20,000 seeded one-to-three-byte
// corruptions of it — accept/reject verdict and every field.
func TestReaderMatchesOracle(t *testing.T) {
	vec := []float64{1, math.NaN()}
	peers := []LandmarkVec{{Addr: "q:2", Out: vec, In: vec}, {Addr: "r:3"}}
	rng := rand.New(rand.NewSource(23))
	for _, sample := range [][]byte{
		(&GossipExchange{From: "p:1", Out: vec, In: vec, RTTMillis: 7, Peers: peers}).Encode(nil),
		(&GossipReply{Applied: true, Out: vec, In: vec, Peers: peers}).Encode(nil),
		(&QueryBatch{From: "h0", Targets: []string{"a", "", "ccc"}}).Encode(nil),
	} {
		check := func(data []byte) {
			gossipMatchesReference(t, data)
			queryBatchMatchesReference(t, data, 2)
		}
		for cut := 0; cut <= len(sample); cut++ {
			check(sample[:cut])
		}
		corrupt := make([]byte, len(sample))
		for i := 0; i < 20000; i++ {
			copy(corrupt, sample)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				corrupt[rng.Intn(len(corrupt))] = byte(rng.Intn(256))
			}
			check(corrupt)
		}
	}
}
