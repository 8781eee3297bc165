// Package wire defines the binary protocol spoken between the IDES
// information server, landmark agents, and ordinary-host clients (§5.1's
// architecture). Frames are length-prefixed and versioned; payloads are
// fixed-layout big-endian with explicit counts, so a frame can be decoded
// without reflection or allocation beyond the payload copy.
//
// Frame layout:
//
//	magic   uint16  0x1DE5
//	version uint8   1
//	type    uint8   message type
//	length  uint32  payload byte count
//	payload [length]byte
//
// Encode* functions append to a caller-provided buffer (gopacket-style
// zero-copy building); Decode* functions parse from a payload slice and
// copy what they keep, *View and Parse* functions return subslices of
// it, and all of them read through one cursor, Reader.
//
// Evolution policy: the frame version is bumped only for incompatible
// layout changes. Compatible additions are appended to the end of a
// payload — decoders ignore unrecognized trailing bytes, and treat an
// absent trailing field as its zero value — so old and new peers
// interoperate. The model-epoch stamps on Info, Model, RegisterHost,
// Vectors, Distances and Neighbors are such trailing fields: a peer that
// predates them reads and writes epoch 0, the epoch before the first fit,
// so a server that has fit refuses its registrations as stale. Model
// carries a second one after its Epoch, the revision Rev within that
// epoch, which a pre-Rev peer reads as 0.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol constants.
const (
	Magic   = 0x1DE5
	Version = 1
	// VersionMux is the multiplexed framing negotiated by the
	// Hello/HelloAck handshake: every frame carries a u32 stream ID after
	// the common header, so many requests can be in flight on one
	// connection and responses return in completion order.
	VersionMux = 2
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 8
	// MuxHeaderSize is the v2 frame header length: the common header
	// plus the u32 stream ID.
	MuxHeaderSize = 12
	// MaxPayload bounds a frame payload; a model for 10k landmarks at
	// d=32 is ~5 MB, so 64 MB leaves ample headroom while stopping
	// memory-exhaustion frames.
	MaxPayload = 64 << 20
)

// MsgType identifies a message.
type MsgType uint8

// Message types. Requests are odd-numbered concepts with even replies only
// by convention of ordering here; the dispatcher switches on type.
const (
	TypeError        MsgType = 0x00
	TypePing         MsgType = 0x01
	TypePong         MsgType = 0x02
	TypeGetInfo      MsgType = 0x03
	TypeInfo         MsgType = 0x04
	TypeGetModel     MsgType = 0x05
	TypeModel        MsgType = 0x06
	TypeReportRTT    MsgType = 0x07
	TypeAck          MsgType = 0x08
	TypeRegisterHost MsgType = 0x09
	TypeGetVectors   MsgType = 0x0a
	TypeVectors      MsgType = 0x0b
	TypeQueryDist    MsgType = 0x0c
	TypeDistance     MsgType = 0x0d
	TypeQueryBatch   MsgType = 0x0e
	TypeDistances    MsgType = 0x0f
	TypeQueryKNN     MsgType = 0x10
	TypeNeighbors    MsgType = 0x11
	// TypeHello/TypeHelloAck negotiate the v2 multiplexed framing on a
	// fresh connection. A peer that predates them answers Hello with a
	// CodeUnknownType Error, which the caller treats as a clean downgrade
	// to v1 lockstep framing. Defined here (not with the replication
	// types) so the constant block stays in wire order.
	TypeHello    MsgType = 0x15
	TypeHelloAck MsgType = 0x16
)

// String names the message type for logs.
func (t MsgType) String() string {
	switch t {
	case TypeError:
		return "Error"
	case TypePing:
		return "Ping"
	case TypePong:
		return "Pong"
	case TypeGetInfo:
		return "GetInfo"
	case TypeInfo:
		return "Info"
	case TypeGetModel:
		return "GetModel"
	case TypeModel:
		return "Model"
	case TypeReportRTT:
		return "ReportRTT"
	case TypeAck:
		return "Ack"
	case TypeRegisterHost:
		return "RegisterHost"
	case TypeGetVectors:
		return "GetVectors"
	case TypeVectors:
		return "Vectors"
	case TypeQueryDist:
		return "QueryDist"
	case TypeDistance:
		return "Distance"
	case TypeQueryBatch:
		return "QueryBatch"
	case TypeDistances:
		return "Distances"
	case TypeQueryKNN:
		return "QueryKNN"
	case TypeNeighbors:
		return "Neighbors"
	case TypeSubscribe:
		return "Subscribe"
	case TypeHello:
		return "Hello"
	case TypeHelloAck:
		return "HelloAck"
	case TypeGossipExchange:
		return "GossipExchange"
	case TypeGossipReply:
		return "GossipReply"
	default:
		return fmt.Sprintf("MsgType(0x%02x)", uint8(t))
	}
}

// Errors returned by frame and payload parsing.
var (
	ErrBadMagic     = errors.New("wire: bad magic")
	ErrBadVersion   = errors.New("wire: unsupported protocol version")
	ErrFrameTooBig  = errors.New("wire: frame exceeds MaxPayload")
	ErrShortPayload = errors.New("wire: payload truncated")
)

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// AppendMuxFrame appends a complete v2 (multiplexed) frame — header,
// stream ID, payload — to dst and returns the extended slice. The
// payload may be nil. Stream ID 0 is reserved for connection-level
// frames (the handshake itself never uses v2 framing, but a v1 frame
// read by ReadMuxFrameInto reports stream 0).
func AppendMuxFrame(dst []byte, t MsgType, stream uint32, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, VersionMux, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, stream)
	return append(dst, payload...)
}

// WriteFrame writes a frame to w.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooBig
	}
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = byte(t)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire: writing payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame from r. The returned payload is freshly
// allocated and owned by the caller.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// Propagate io.EOF untouched so callers can detect clean shutdown.
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: reading header: %w", err)
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, nil, ErrBadVersion
	}
	t := MsgType(hdr[3])
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return 0, nil, ErrFrameTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: reading payload: %w", err)
	}
	return t, payload, nil
}

// ---- primitive append helpers; Reader is their read side ----
//
// The exported variants exist for sibling packages that persist binary
// records in the same big-endian fixed-layout style (internal/telemetry's
// history store); the protocol encoders below use the unexported
// spellings.

// AppendString appends a u16 length-prefixed string.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s) }

// AppendFloat64 appends one big-endian IEEE-754 float64.
func AppendFloat64(dst []byte, f float64) []byte { return appendFloat(dst, f) }

// AppendUint32 appends one big-endian uint32.
func AppendUint32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// AppendUint64 appends one big-endian uint64.
func AppendUint64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendString(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, v []float64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	for _, f := range v {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
