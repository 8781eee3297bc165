package wire

import (
	"encoding/binary"
)

// Replication message type. A follower opens a connection, sends one
// Subscribe, and the connection switches from request/response to a
// one-way stream of messages a client already speaks: the leader first
// sends a Model carrying its current model (Epoch 0 and no landmarks when
// nothing has been fit yet — the frame then acts as a bare subscription
// ack) and one RegisterHost per directory entry, then a Model on every
// fit or revision and the accepted RegisterHost of every registration.
//
// Types 0x13 and 0x14 are retired, not free: they were the stream's own
// snapshot and directory-delta messages before the stream reused Model
// and RegisterHost, and a leader that predates the change still sends
// them.
const TypeSubscribe MsgType = 0x12

// Subscribe opens a replication stream. ID names the follower for the
// leader's logs and lag metrics; Epoch/Rev report the follower's last
// applied model position (both 0 on a cold start). The leader only logs
// them: every subscription is sent the served model and the whole
// directory, and the lag metric counts from what the stream has sent.
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
