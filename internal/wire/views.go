package wire

import "encoding/binary"

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
