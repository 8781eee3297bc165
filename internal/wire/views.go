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

// QueryDistView parses a QueryDist payload without allocating: from and
// to alias b.
func QueryDistView(b []byte) (from, to []byte, err error) {
	r := NewReader(b)
	return r.View(), r.View(), r.Err()
}

// QueryKNNView parses a QueryKNN payload without allocating: from
// aliases b.
func QueryKNNView(b []byte) (from []byte, k uint32, err error) {
	r := NewReader(b)
	return r.View(), r.Uint32(), r.Err()
}

// QueryBatchView parses a QueryBatch payload without copying: from and
// every target alias b, and the targets are appended to dst[:0] so a
// handler can reuse one slice across requests. limit bounds the count
// field: a frame naming more targets is refused at its header, before
// any of them is walked.
func QueryBatchView(b []byte, limit int, dst [][]byte) (from []byte, targets [][]byte, err error) {
	r := NewReader(b)
	from = r.View()
	// Each target costs at least its 2-byte length prefix on the wire.
	n := r.Count(2)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n > limit {
		return nil, nil, fmt.Errorf("batch names %d targets, limit %d", n, limit)
	}
	targets = dst[:0]
	if cap(targets) < n {
		targets = make([][]byte, 0, n)
	}
	for i := 0; i < n; i++ {
		targets = append(targets, r.View())
	}
	return from, targets, r.Err()
}

// GetVectorsView parses a GetVectors payload without allocating: the
// returned address aliases b.
func GetVectorsView(b []byte) ([]byte, error) {
	r := NewReader(b)
	return r.View(), r.Err()
}

// RegisterHostView is a parsed RegisterHost whose address and rows alias
// the payload; see RegisterHost for the fields.
type RegisterHostView struct {
	Addr    []byte
	Out, In Floats
	Epoch   uint64
}

// ParseRegisterHost parses a RegisterHost payload without allocating:
// the leader checks the view and copies its rows straight into the
// directory. DecodeRegisterHost is this view copied out.
func ParseRegisterHost(b []byte) (RegisterHostView, error) {
	r := NewReader(b)
	v := RegisterHostView{Addr: r.View(), Out: r.FloatsView(), In: r.FloatsView()}
	v.Epoch = r.OptUint64()
	return v, r.Err()
}

// PingToken parses a Ping (or Pong) payload without allocating.
func PingToken(b []byte) (uint64, error) {
	r := NewReader(b)
	return r.Uint64(), r.Err()
}

// ParseDistance parses a Distance payload by value — the client-side
// half of the zero-allocation point query.
func ParseDistance(b []byte) (Distance, error) {
	r := NewReader(b)
	return Distance{Found: r.Bool(), Millis: r.Float64()}, r.Err()
}

// Gossip views. A peer's round is one GossipExchange out and one
// GossipReply back, and everything it wants from either — the partner's
// rows for one PeerStep, a few (address, rows) pairs to copy into its
// neighbor table — is consumed before the frame buffer is reused. The
// views validate the whole payload once, peer sample included, and then
// hand out subslices of it.

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

// PeerSample is a zero-copy view of the peer list both gossip messages
// end with. The entries were validated when the message was parsed;
// iterate with Next.
type PeerSample struct {
	n int
	r Reader
}

// Len returns the number of entries not yet consumed by Next.
func (s *PeerSample) Len() int { return s.n }

// Next returns the next entry — its address and rows alias the payload —
// and false once the sample is exhausted. It cannot run short: peerSample
// made the same three reads per entry when it built s.
func (s *PeerSample) Next() (addr []byte, out, in Floats, ok bool) {
	if s.n == 0 {
		return nil, nil, nil, false
	}
	s.n--
	return s.r.View(), s.r.FloatsView(), s.r.FloatsView(), true
}

// peerSample validates the peer list both gossip messages end with and
// returns the view over it. Each entry costs at least a 2-byte address
// prefix and two 4-byte vector counts.
func (r *Reader) peerSample() PeerSample {
	s := PeerSample{n: r.Count(10)}
	s.r = *r // a second statement: the copy must start after the count
	for i := 0; i < s.n; i++ {
		r.View()
		r.FloatsView()
		r.FloatsView()
	}
	return s
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
	r := NewReader(b)
	return GossipExchangeView{
		From: r.View(), Out: r.FloatsView(), In: r.FloatsView(),
		RTTMillis: r.Float64(), Peers: r.peerSample(),
	}, r.Err()
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
	r := NewReader(b)
	return GossipReplyView{Applied: r.Bool(), Out: r.FloatsView(), In: r.FloatsView(), Peers: r.peerSample()}, r.Err()
}
