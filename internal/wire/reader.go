package wire

import (
	"encoding/binary"
	"math"
)

// Reader is the one read path for everything this package encodes, and
// for the history records internal/telemetry builds from the same
// primitives: a cursor over a payload with a sticky error. Each method
// consumes one field; the first read the payload is too short for
// empties the cursor, so it and every read after it return the zero
// value, and Err reports ErrShortPayload once at the end. A decoder is
// therefore its message's field list:
//
//	r := NewReader(b)
//	v := RegisterHostView{Addr: r.View(), Out: r.FloatsView(), In: r.FloatsView()}
//	v.Epoch = r.OptUint64()
//	return v, r.Err()
//
// which depends on Go evaluating the calls in a composite literal (and
// in a return statement) in lexical order — the spec's "Order of
// evaluation" guarantees it for function and method calls.
//
// Values read from a cursor whose Err is non-nil are meaningless. Every
// method but Floats inlines into the parsers on the serving path, which
// is what keeps them at their hand-threaded speed: after a change here,
// read `go build -gcflags=-m ./internal/wire` and run the package's
// benchmarks.
type Reader struct {
	b     []byte
	off   int // next unread byte
	short bool
}

// NewReader returns a cursor at the start of payload.
func NewReader(payload []byte) Reader { return Reader{b: payload} }

// Err reports ErrShortPayload if any read ran past the payload.
func (r *Reader) Err() error {
	if r.short {
		return ErrShortPayload
	}
	return nil
}

// left is the number of unread bytes.
func (r *Reader) left() int { return len(r.b) - r.off }

// fail empties the cursor, which makes every later read short too
// without any of them testing the flag.
func (r *Reader) fail() { r.b, r.off, r.short = nil, 0, true }

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	if r.left() < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte as a flag.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	if r.left() < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.left() < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.left() < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Float64 reads a big-endian IEEE-754 float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// OptUint64 reads a trailing uint64 if one is present and returns 0
// otherwise, without failing the cursor — the decoding half of the
// append-only evolution policy: fields added after the first protocol
// release are absent in frames from old peers, and absent means zero.
func (r *Reader) OptUint64() uint64 {
	if r.left() < 8 {
		return 0
	}
	return r.Uint64()
}

// View reads a u16 length-prefixed string without copying: the result
// aliases the payload.
func (r *Reader) View() []byte {
	// One comparison covers the prefix and the body: a payload too short
	// for its prefix reads n as the impossible 1<<16. The prefix is two
	// indexed loads because reslicing for binary.BigEndian costs a
	// pointer adjustment per target that QueryBatchView can measure.
	body, n := r.off+2, 1<<16
	if body <= len(r.b) {
		n = int(r.b[r.off])<<8 | int(r.b[r.off+1])
	}
	end := body + n
	if end > len(r.b) {
		r.fail()
		return nil
	}
	r.off = end
	return r.b[body:end]
}

// String reads a u16 length-prefixed string into memory of its own.
func (r *Reader) String() string { return string(r.View()) }

// Count reads a u32 element count and refuses one the rest of the
// payload cannot hold, given that every element costs at least
// minBytesPerElem bytes on the wire. It is the only place a count is
// compared with the bytes behind it, and callers size by its result, so
// nothing is ever allocated that the sender did not pay for in bytes —
// and a body that then turns out truncated costs at most that many zero
// reads, which is why no decoder checks Err inside its loop. Loop over
// what Count sized, never over a count read some other way.
func (r *Reader) Count(minBytesPerElem uint) (n int) {
	body := r.off + 4
	if body <= len(r.b) {
		n = int(binary.BigEndian.Uint32(r.b[r.off:]))
		if uint(n) <= uint(len(r.b)-body)/minBytesPerElem {
			r.off = body
			return n
		}
	}
	r.fail()
	return 0
}

// FloatsView reads a u32-counted float64 vector without copying.
func (r *Reader) FloatsView() Floats {
	n := 8 * r.Count(8)
	r.off += n
	return r.b[r.off-n : r.off]
}

// Floats reads a u32-counted float64 vector into a fresh slice (non-nil
// even when empty).
func (r *Reader) Floats() []float64 { return r.FloatsView().Slice() }

// landmarkVecs reads the u32-counted (address, out, in) list that Model
// and both gossip messages carry. Each entry costs at least its 2-byte
// address prefix and two 4-byte vector counts.
func (r *Reader) landmarkVecs() []LandmarkVec {
	vecs := make([]LandmarkVec, r.Count(10))
	for i := range vecs {
		vecs[i] = LandmarkVec{Addr: r.String(), Out: r.Floats(), In: r.Floats()}
	}
	return vecs
}

// decoded is how every Decode* function returns: the message, or nil
// and the cursor's error.
func decoded[T any](m *T, r *Reader) (*T, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
