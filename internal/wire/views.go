package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Zero-copy request views: the one parser for each small request
// message. The Decode* functions copy every string they keep, which is
// the right contract for callers that retain data — but a handler looks
// an address up in the directory and forgets it before the next frame
// arrives, so the copy is pure garbage. These views return subslices of
// the payload instead; they are valid only as long as the payload buffer
// is, and callers must not retain them across frames.

// consumeBytesView parses a u16 length-prefixed string without copying.
func consumeBytesView(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, ErrShortPayload
	}
	return b[:n], b[n:], nil
}

// QueryDistView parses a QueryDist payload without allocating: from and
// to alias b.
func QueryDistView(b []byte) (from, to []byte, err error) {
	if from, b, err = consumeBytesView(b); err != nil {
		return nil, nil, err
	}
	if to, _, err = consumeBytesView(b); err != nil {
		return nil, nil, err
	}
	return from, to, nil
}

// QueryKNNView parses a QueryKNN payload without allocating: from
// aliases b.
func QueryKNNView(b []byte) (from []byte, k uint32, err error) {
	if from, b, err = consumeBytesView(b); err != nil {
		return nil, 0, err
	}
	if k, _, err = ConsumeUint32(b); err != nil {
		return nil, 0, err
	}
	return from, k, nil
}

// QueryBatchView parses a QueryBatch payload without copying: from and
// every target alias b, and the targets are appended to dst[:0] so a
// handler can reuse one slice across requests. limit bounds the count
// field: a frame naming more targets is refused at its header, before
// any of them is walked.
func QueryBatchView(b []byte, limit int, dst [][]byte) (from []byte, targets [][]byte, err error) {
	if from, b, err = consumeBytesView(b); err != nil {
		return nil, nil, err
	}
	if len(b) < 4 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// Each target costs at least its 2-byte length prefix on the wire, so
	// a count the payload cannot hold fails here.
	if 2*n > len(b) {
		return nil, nil, ErrShortPayload
	}
	if n > limit {
		return nil, nil, fmt.Errorf("batch names %d targets, limit %d", n, limit)
	}
	targets = dst[:0]
	if cap(targets) < n {
		// A view is 12x a target's minimum wire cost: size for n only up
		// to a bound and let append grow the rest as targets validate.
		targets = make([][]byte, 0, min(n, 4096))
	}
	for i := 0; i < n; i++ {
		var t []byte
		if t, b, err = consumeBytesView(b); err != nil {
			return nil, nil, err
		}
		targets = append(targets, t)
	}
	return from, targets, nil
}

// GetVectorsView parses a GetVectors payload without allocating: the
// returned address aliases b.
func GetVectorsView(b []byte) ([]byte, error) {
	addr, _, err := consumeBytesView(b)
	return addr, err
}

// PingToken parses a Ping (or Pong) payload without allocating.
func PingToken(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrShortPayload
	}
	return binary.BigEndian.Uint64(b), nil
}

// ParseDistance parses a Distance payload by value — the client-side
// half of the zero-allocation point query.
func ParseDistance(b []byte) (Distance, error) {
	var m Distance
	var err error
	rest := b
	if m.Found, rest, err = consumeBool(rest); err != nil {
		return Distance{}, err
	}
	if m.Millis, _, err = consumeFloat(rest); err != nil {
		return Distance{}, err
	}
	return m, nil
}

// Gossip views. A peer's round is one GossipExchange out and one
// GossipReply back, and everything it wants from either — the partner's
// rows for one PeerStep, a few (address, rows) pairs to copy into its
// neighbor table — is consumed before the frame buffer is reused. The
// views validate the whole payload once, peer sample included, and then
// hand out subslices of it; DecodeGossipExchange and DecodeGossipReply
// materialize owning messages from the same parse, so there is one
// validation path.

// Floats is a zero-copy view of a float64 vector: the big-endian bytes
// of its elements, 8 per element. It aliases the payload it was parsed
// from.
type Floats []byte

// Len returns the number of elements.
func (f Floats) Len() int { return len(f) / 8 }

// At decodes element i.
func (f Floats) At(i int) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(f[8*i:]))
}

// CopyTo decodes the vector into dst, which must hold Len elements.
func (f Floats) CopyTo(dst []float64) {
	for i := range dst[:f.Len()] {
		dst[i] = f.At(i)
	}
}

// Slice decodes the vector into a fresh slice (non-nil even when empty).
func (f Floats) Slice() []float64 {
	out := make([]float64, f.Len())
	f.CopyTo(out)
	return out
}

// consumeFloatsView parses a u32-counted float64 vector without copying.
func consumeFloatsView(b []byte) (Floats, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxPayload/8 || len(b) < 8*n {
		return nil, nil, ErrShortPayload
	}
	return Floats(b[:8*n]), b[8*n:], nil
}

// PeerSample is a zero-copy view of the peer list both gossip messages
// end with. The entries were validated when the message was parsed;
// iterate with Next.
type PeerSample struct {
	n int
	b []byte
}

// Len returns the number of entries not yet consumed by Next.
func (s *PeerSample) Len() int { return s.n }

// Next returns the next entry — its address and rows alias the payload —
// and false once the sample is exhausted.
func (s *PeerSample) Next() (addr []byte, out, in Floats, ok bool) {
	if s.n == 0 {
		return nil, nil, nil, false
	}
	// Cannot fail: the Parse function that built s walked every entry.
	addr, out, in, s.b, _ = consumePeerEntryView(s.b)
	s.n--
	return addr, out, in, true
}

// slice materializes the remaining entries into owning LandmarkVecs.
func (s PeerSample) slice() []LandmarkVec {
	// Grow incrementally past 4096 so a count that is merely large
	// cannot force a huge allocation up front.
	peers := make([]LandmarkVec, 0, min(s.n, 4096))
	for addr, out, in, ok := s.Next(); ok; addr, out, in, ok = s.Next() {
		peers = append(peers, LandmarkVec{Addr: string(addr), Out: out.Slice(), In: in.Slice()})
	}
	return peers
}

func consumePeerEntryView(b []byte) (addr []byte, out, in Floats, rest []byte, err error) {
	if addr, b, err = consumeBytesView(b); err != nil {
		return nil, nil, nil, nil, err
	}
	if out, b, err = consumeFloatsView(b); err != nil {
		return nil, nil, nil, nil, err
	}
	if in, b, err = consumeFloatsView(b); err != nil {
		return nil, nil, nil, nil, err
	}
	return addr, out, in, b, nil
}

// consumePeerSampleView validates a whole peer sample and returns the
// view over it.
func consumePeerSampleView(b []byte) (PeerSample, error) {
	if len(b) < 4 {
		return PeerSample{}, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// Each entry costs at least a 2-byte address prefix and two 4-byte
	// vector counts, so a hostile count fails here rather than after a
	// walk of everything the payload does hold.
	if n > MaxPayload/10 || 10*n > len(b) {
		return PeerSample{}, ErrShortPayload
	}
	s := PeerSample{n: n, b: b}
	var err error
	for i := 0; i < n; i++ {
		if _, _, _, b, err = consumePeerEntryView(b); err != nil {
			return PeerSample{}, err
		}
	}
	return s, nil
}

// GossipExchangeView is a parsed GossipExchange whose From, rows and
// peer sample alias the payload; see GossipExchange for the fields.
type GossipExchangeView struct {
	From      []byte
	Out, In   Floats
	RTTMillis float64
	Peers     PeerSample
}

// ParseGossipExchange validates a GossipExchange payload without
// allocating.
func ParseGossipExchange(b []byte) (GossipExchangeView, error) {
	var v GossipExchangeView
	var err error
	if v.From, b, err = consumeBytesView(b); err != nil {
		return GossipExchangeView{}, err
	}
	if v.Out, b, err = consumeFloatsView(b); err != nil {
		return GossipExchangeView{}, err
	}
	if v.In, b, err = consumeFloatsView(b); err != nil {
		return GossipExchangeView{}, err
	}
	if v.RTTMillis, b, err = consumeFloat(b); err != nil {
		return GossipExchangeView{}, err
	}
	if v.Peers, err = consumePeerSampleView(b); err != nil {
		return GossipExchangeView{}, err
	}
	return v, nil
}

// GossipReplyView is a parsed GossipReply whose rows and peer sample
// alias the payload; see GossipReply for the fields.
type GossipReplyView struct {
	Applied bool
	Out, In Floats
	Peers   PeerSample
}

// ParseGossipReply validates a GossipReply payload without allocating.
func ParseGossipReply(b []byte) (GossipReplyView, error) {
	var v GossipReplyView
	var err error
	if v.Applied, b, err = consumeBool(b); err != nil {
		return GossipReplyView{}, err
	}
	if v.Out, b, err = consumeFloatsView(b); err != nil {
		return GossipReplyView{}, err
	}
	if v.In, b, err = consumeFloatsView(b); err != nil {
		return GossipReplyView{}, err
	}
	if v.Peers, err = consumePeerSampleView(b); err != nil {
		return GossipReplyView{}, err
	}
	return v, nil
}
