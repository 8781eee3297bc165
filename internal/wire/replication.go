package wire

import (
	"encoding/binary"
)

// Replication message types. A follower opens a connection, sends one
// Subscribe, and the connection switches from request/response to a
// one-way stream: the leader first sends a SnapshotFrame carrying its
// current model (Epoch 0 when nothing has been fit yet — the frame then
// acts as a bare subscription ack) and the full directory as DirDelta
// batches, then pushes a SnapshotFrame on every model publication and a
// DirDelta on every accepted registration.
const (
	TypeSubscribe     MsgType = 0x12
	TypeSnapshotFrame MsgType = 0x13
	TypeDirDelta      MsgType = 0x14
)

// Subscribe opens a replication stream. ID names the follower for the
// leader's logs and lag metrics; Epoch/Rev report the follower's last
// applied snapshot position (both 0 on a cold start), letting the leader
// gauge how far behind a resubscribing follower is.
type Subscribe struct {
	ID    string
	Epoch uint64
	Rev   uint64
}

// Encode appends the message payload to dst.
func (m *Subscribe) Encode(dst []byte) []byte {
	dst = appendString(dst, m.ID)
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	return binary.BigEndian.AppendUint64(dst, m.Rev)
}

// DecodeSubscribe parses a Subscribe payload.
func DecodeSubscribe(b []byte) (*Subscribe, error) {
	r := NewReader(b)
	return decoded(&Subscribe{ID: r.String(), Epoch: r.Uint64(), Rev: r.Uint64()}, &r)
}

// SnapshotFrame streams one published model snapshot to a follower: the
// (epoch, rev) stamp plus the full landmark model, self-contained so a
// follower can serve queries from the frame alone. Epoch 0 carries no
// model — it is the subscription ack a leader sends before its first fit.
type SnapshotFrame struct {
	Epoch     uint64
	Rev       uint64
	Dim       uint32
	Algorithm string
	Landmarks []LandmarkVec
}

// Encode appends the message payload to dst.
func (m *SnapshotFrame) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, m.Rev)
	dst = binary.BigEndian.AppendUint32(dst, m.Dim)
	dst = appendString(dst, m.Algorithm)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Landmarks)))
	for i := range m.Landmarks {
		l := &m.Landmarks[i]
		dst = appendString(dst, l.Addr)
		dst = appendFloats(dst, l.Out)
		dst = appendFloats(dst, l.In)
	}
	return dst
}

// DecodeSnapshotFrame parses a SnapshotFrame payload.
func DecodeSnapshotFrame(b []byte) (*SnapshotFrame, error) {
	r := NewReader(b)
	return decoded(&SnapshotFrame{
		Epoch: r.Uint64(), Rev: r.Uint64(), Dim: r.Uint32(),
		Algorithm: r.String(), Landmarks: r.landmarkVecs(),
	}, &r)
}

// DirUpsert replicates one directory entry: a host's solved vectors and
// the model epoch they were solved against (0 = unversioned, accepted by
// the directory like a pre-epoch registration).
type DirUpsert struct {
	Addr  string
	Out   []float64
	In    []float64
	Epoch uint64
}

// DirDelta streams directory changes to a follower. Epoch is the
// leader's directory epoch when the delta was cut, so a follower can
// discard deltas from a generation it has already left behind. Initial
// sync sends the whole directory as one or more DirDelta batches;
// steady state sends one upsert per accepted registration.
type DirDelta struct {
	Epoch   uint64
	Upserts []DirUpsert
}

// Encode appends the message payload to dst.
func (m *DirDelta) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Upserts)))
	for i := range m.Upserts {
		u := &m.Upserts[i]
		dst = appendString(dst, u.Addr)
		dst = appendFloats(dst, u.Out)
		dst = appendFloats(dst, u.In)
		dst = binary.BigEndian.AppendUint64(dst, u.Epoch)
	}
	return dst
}

// DecodeDirDelta parses a DirDelta payload.
func DecodeDirDelta(b []byte) (*DirDelta, error) {
	r := NewReader(b)
	// Each upsert costs at least 18 bytes: address prefix, two vector
	// counts, and the entry epoch.
	m := &DirDelta{Epoch: r.Uint64(), Upserts: make([]DirUpsert, r.Count(18))}
	for i := range m.Upserts {
		m.Upserts[i] = DirUpsert{Addr: r.String(), Out: r.Floats(), In: r.Floats(), Epoch: r.Uint64()}
	}
	return decoded(m, &r)
}
