package wire

import (
	"encoding/binary"
)

// This file carries the decentralized (landmark-free) mode's messages:
// a GossipExchange/GossipReply pair is one DMFSGD gossip round between
// two peers — or between a peer and a rendezvous directory, which
// stores the announced coordinates and answers with a warm peer sample
// instead of coordinates of its own.

// Gossip message types, continuing the constant block in wire.go.
const (
	TypeGossipExchange MsgType = 0x17
	TypeGossipReply    MsgType = 0x18
)

// GossipExchange is the initiating half of a gossip round: the sender
// offers its own coordinate rows (as they were before any step this
// round), the RTT it just measured to the receiver, and a small sample
// of its neighbor view. The receiver folds the measurement into its own
// rows with the sender's rows as constants and answers with a
// GossipReply carrying its pre-step rows, so both sides apply the same
// symmetric update from the same snapshot.
type GossipExchange struct {
	// From is the sender's dialable listen address — its peer identity
	// in neighbor tables and rendezvous directories.
	From string
	// Out, In are the sender's coordinate rows x_i and y_i.
	Out, In []float64
	// RTTMillis is the RTT the sender measured to the receiver
	// immediately before this exchange. A negative value means no
	// measurement was taken — a rendezvous announce or a coordinate
	// fetch — and neither side applies a gradient step.
	RTTMillis float64
	// Peers is a bounded sample of the sender's neighbor view, gossiped
	// so neighbor sets keep mixing. Entries may carry empty vectors when
	// the sender has no coordinates cached for a peer.
	Peers []LandmarkVec
}

// Encode appends the message payload to dst.
func (m *GossipExchange) Encode(dst []byte) []byte {
	dst = appendString(dst, m.From)
	dst = appendFloats(dst, m.Out)
	dst = appendFloats(dst, m.In)
	dst = appendFloat(dst, m.RTTMillis)
	return AppendPeerSample(dst, m.Peers)
}

// DecodeGossipExchange parses a GossipExchange payload into a message
// that owns its memory.
func DecodeGossipExchange(b []byte) (*GossipExchange, error) {
	r := NewReader(b)
	return decoded(&GossipExchange{
		From: r.String(), Out: r.Floats(), In: r.Floats(),
		RTTMillis: r.Float64(), Peers: r.landmarkVecs(),
	}, &r)
}

// GossipReply answers a GossipExchange.
type GossipReply struct {
	// Applied reports whether the receiver folded the exchange's
	// measurement into its own coordinate rows. False for rendezvous
	// directories and for exchanges with a negative RTTMillis.
	Applied bool
	// Out, In are the receiver's coordinate rows from before any step
	// this round; the sender runs its half of the symmetric update
	// against them. Both empty means the receiver holds no coordinates
	// (a rendezvous directory, or a peer that has not initialized).
	Out, In []float64
	// Peers is a bounded sample of the receiver's neighbor view — for a
	// rendezvous directory, the warm entries seeding the newcomer.
	Peers []LandmarkVec
}

// Encode appends the message payload to dst.
func (m *GossipReply) Encode(dst []byte) []byte {
	return AppendPeerSample(AppendGossipReplyRows(dst, m.Applied, m.Out, m.In), m.Peers)
}

// AppendGossipReplyRows appends the part of a GossipReply payload that
// precedes the peer sample. A peer answers with the rows it held before
// the step the exchange triggers, so it encodes them from live state
// first, steps in place, and appends the sample (AppendPeerSample) last.
func AppendGossipReplyRows(dst []byte, applied bool, out, in []float64) []byte {
	dst = appendBool(dst, applied)
	dst = appendFloats(dst, out)
	return appendFloats(dst, in)
}

// AppendPeerSample appends the u32-counted peer list both gossip
// messages end with.
func AppendPeerSample(dst []byte, peers []LandmarkVec) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(peers)))
	for _, p := range peers {
		dst = appendString(dst, p.Addr)
		dst = appendFloats(dst, p.Out)
		dst = appendFloats(dst, p.In)
	}
	return dst
}

// DecodeGossipReply parses a GossipReply payload into a message that
// owns its memory.
func DecodeGossipReply(b []byte) (*GossipReply, error) {
	r := NewReader(b)
	return decoded(&GossipReply{Applied: r.Bool(), Out: r.Floats(), In: r.Floats(), Peers: r.landmarkVecs()}, &r)
}
