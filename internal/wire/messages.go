package wire

import (
	"encoding/binary"
	"fmt"
)

// Error reports a request failure.
type Error struct {
	Code uint16
	Text string
}

// Error codes.
const (
	CodeInternal     uint16 = 1
	CodeUnknownType  uint16 = 2
	CodeNotFound     uint16 = 3
	CodeModelNotFit  uint16 = 4
	CodeBadRequest   uint16 = 5
	CodeNotLandmark  uint16 = 6
	CodeUnavailable  uint16 = 7
	CodeUnauthorized uint16 = 8
	// CodeStaleEpoch rejects a registration whose vectors were solved
	// against a model epoch the server has since replaced; the client
	// must re-fetch the model, re-solve, and register again.
	CodeStaleEpoch uint16 = 9
	// CodeOverloaded rejects one stream on a multiplexed connection that
	// has exceeded its negotiated in-flight window. Only that stream
	// fails — the connection stays up and the caller may retry after
	// in-flight requests drain.
	CodeOverloaded uint16 = 10
)

// Encode appends the message payload to dst.
func (m *Error) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, m.Code)
	return appendString(dst, m.Text)
}

// AppendError appends an Error payload to dst and returns it with its
// frame type — the shape every request handler returns.
func AppendError(dst []byte, code uint16, text string) (MsgType, []byte) {
	e := Error{Code: code, Text: text}
	return TypeError, e.Encode(dst)
}

// DecodeError parses an Error payload.
func DecodeError(b []byte) (*Error, error) {
	r := NewReader(b)
	return decoded(&Error{Code: r.Uint16(), Text: r.String()}, &r)
}

// Error implements the error interface so a decoded wire error can be
// returned directly up a client call chain.
func (m *Error) Error() string {
	return fmt.Sprintf("ides: remote error %d: %s", m.Code, m.Text)
}

// Hello opens the transport feature negotiation on a fresh connection:
// the client announces the highest framing version it speaks and how
// many streams it would like in flight at once. It is always sent as a
// v1 frame so a pre-mux server can parse the header; such a server
// answers with a CodeUnknownType Error, which the client treats as a
// downgrade to v1 lockstep framing on that connection.
type Hello struct {
	// MaxVersion is the highest frame version the sender supports.
	MaxVersion uint8
	// MaxInflight is the sender's desired cap on concurrently open
	// streams. 0 means "no preference" — the responder's cap applies.
	MaxInflight uint32
}

// Encode appends the message payload to dst.
func (m *Hello) Encode(dst []byte) []byte {
	dst = append(dst, m.MaxVersion)
	return binary.BigEndian.AppendUint32(dst, m.MaxInflight)
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (*Hello, error) {
	r := NewReader(b)
	return decoded(&Hello{MaxVersion: r.Uint8(), MaxInflight: r.Uint32()}, &r)
}

// HelloAck answers a Hello: the version both peers will speak from the
// next frame on, and the responder's in-flight stream cap for this
// connection. A client must not open more streams than MaxInflight;
// excess streams are rejected with CodeOverloaded Error frames.
type HelloAck struct {
	// Version is the negotiated frame version (min of both peers').
	Version uint8
	// MaxInflight is the per-connection stream cap the responder will
	// enforce.
	MaxInflight uint32
}

// Encode appends the message payload to dst.
func (m *HelloAck) Encode(dst []byte) []byte {
	dst = append(dst, m.Version)
	return binary.BigEndian.AppendUint32(dst, m.MaxInflight)
}

// DecodeHelloAck parses a HelloAck payload.
func DecodeHelloAck(b []byte) (*HelloAck, error) {
	r := NewReader(b)
	return decoded(&HelloAck{Version: r.Uint8(), MaxInflight: r.Uint32()}, &r)
}

// Ping is an application-level echo request used for RTT measurement over
// the same transport the service runs on.
type Ping struct {
	Token uint64
}

// Encode appends the message payload to dst.
func (m *Ping) Encode(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, m.Token)
}

// DecodePing parses a Ping payload.
func DecodePing(b []byte) (*Ping, error) {
	r := NewReader(b)
	return decoded(&Ping{Token: r.Uint64()}, &r)
}

// Pong answers a Ping, echoing its token.
type Pong struct {
	Token uint64
}

// Encode appends the message payload to dst.
func (m *Pong) Encode(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, m.Token)
}

// DecodePong parses a Pong payload.
func DecodePong(b []byte) (*Pong, error) {
	r := NewReader(b)
	return decoded(&Pong{Token: r.Uint64()}, &r)
}

// Info describes the server's current model.
type Info struct {
	Dim          uint32
	NumLandmarks uint32
	Algorithm    string
	ModelReady   bool
	// Epoch identifies the model generation currently being served; 0
	// means no model has been fit yet, or the server predates epochs.
	Epoch uint64
}

// Encode appends the message payload to dst.
func (m *Info) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Dim)
	dst = binary.BigEndian.AppendUint32(dst, m.NumLandmarks)
	dst = appendString(dst, m.Algorithm)
	dst = appendBool(dst, m.ModelReady)
	return binary.BigEndian.AppendUint64(dst, m.Epoch)
}

// DecodeInfo parses an Info payload.
func DecodeInfo(b []byte) (*Info, error) {
	r := NewReader(b)
	m := &Info{Dim: r.Uint32(), NumLandmarks: r.Uint32(), Algorithm: r.String(), ModelReady: r.Bool()}
	m.Epoch = r.OptUint64()
	return decoded(m, &r)
}

// LandmarkVec carries one landmark's identity and fitted vectors.
type LandmarkVec struct {
	Addr string
	Out  []float64
	In   []float64
}

// Model carries the full landmark model to a client, and to a follower
// over the replication stream.
type Model struct {
	Dim       uint32
	Algorithm string
	Landmarks []LandmarkVec
	// Epoch identifies this model generation. A client registers with
	// the epoch of the model it solved against, and re-fetches when any
	// later response is stamped with a different epoch.
	Epoch uint64
	// Rev counts the incremental revisions published within Epoch; 0 is
	// the epoch's full fit.
	Rev uint64
}

// Encode appends the message payload to dst.
func (m *Model) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Dim)
	dst = appendString(dst, m.Algorithm)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Landmarks)))
	for i := range m.Landmarks {
		l := &m.Landmarks[i]
		dst = appendString(dst, l.Addr)
		dst = appendFloats(dst, l.Out)
		dst = appendFloats(dst, l.In)
	}
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	return binary.BigEndian.AppendUint64(dst, m.Rev)
}

// DecodeModel parses a Model payload. It refuses one unless every
// landmark's Out and In are exactly Dim long: consumers size their
// matrices from Dim.
func DecodeModel(b []byte) (*Model, error) {
	r := NewReader(b)
	m := &Model{Dim: r.Uint32(), Algorithm: r.String(), Landmarks: r.landmarkVecs()}
	m.Epoch = r.OptUint64()
	m.Rev = r.OptUint64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for _, l := range m.Landmarks {
		if len(l.Out) != int(m.Dim) || len(l.In) != int(m.Dim) {
			return nil, fmt.Errorf("wire: model landmark %q has vector dims %d/%d, want %d", l.Addr, len(l.Out), len(l.In), m.Dim)
		}
	}
	return m, nil
}

// RTTEntry is one measured round-trip time.
type RTTEntry struct {
	To string
	// RTTMillis is the measured RTT in milliseconds.
	RTTMillis float64
}

// ReportRTT is a landmark agent's batched measurement report.
type ReportRTT struct {
	From    string
	Entries []RTTEntry
}

// Encode appends the message payload to dst.
func (m *ReportRTT) Encode(dst []byte) []byte {
	dst = appendString(dst, m.From)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Entries)))
	for i := range m.Entries {
		dst = appendString(dst, m.Entries[i].To)
		dst = appendFloat(dst, m.Entries[i].RTTMillis)
	}
	return dst
}

// DecodeReportRTT parses a ReportRTT payload.
func DecodeReportRTT(b []byte) (*ReportRTT, error) {
	r := NewReader(b)
	// Each entry costs at least its 2-byte address prefix and the float.
	m := &ReportRTT{From: r.String(), Entries: make([]RTTEntry, r.Count(10))}
	for i := range m.Entries {
		m.Entries[i] = RTTEntry{To: r.String(), RTTMillis: r.Float64()}
	}
	return decoded(m, &r)
}

// RegisterHost publishes an ordinary host's solved vectors to the server's
// directory so other hosts can estimate distances to it.
type RegisterHost struct {
	Addr string
	Out  []float64
	In   []float64
	// Epoch is the model generation the vectors were solved against. The
	// server rejects an Epoch that does not match its current one
	// (CodeStaleEpoch); 0 matches only before the first fit.
	Epoch uint64
}

// Encode appends the message payload to dst.
func (m *RegisterHost) Encode(dst []byte) []byte {
	dst = appendString(dst, m.Addr)
	dst = appendFloats(dst, m.Out)
	dst = appendFloats(dst, m.In)
	return binary.BigEndian.AppendUint64(dst, m.Epoch)
}

// DecodeRegisterHost parses a RegisterHost payload into a message that
// owns its memory: ParseRegisterHost validates, this copies out.
func DecodeRegisterHost(b []byte) (*RegisterHost, error) {
	v, err := ParseRegisterHost(b)
	if err != nil {
		return nil, err
	}
	return &RegisterHost{Addr: string(v.Addr), Out: v.Out.Slice(), In: v.In.Slice(), Epoch: v.Epoch}, nil
}

// GetVectors asks the directory for a host's published vectors. The
// server parses it with GetVectorsView.
type GetVectors struct {
	Addr string
}

// Encode appends the message payload to dst.
func (m *GetVectors) Encode(dst []byte) []byte { return appendString(dst, m.Addr) }

// Vectors answers GetVectors.
type Vectors struct {
	Found bool
	Out   []float64
	In    []float64
	// Epoch is the server's current model epoch, so a caller can tell
	// when its own solved vectors are from a dead generation.
	Epoch uint64
}

// Encode appends the message payload to dst.
func (m *Vectors) Encode(dst []byte) []byte {
	dst = appendBool(dst, m.Found)
	dst = appendFloats(dst, m.Out)
	dst = appendFloats(dst, m.In)
	return binary.BigEndian.AppendUint64(dst, m.Epoch)
}

// DecodeVectors parses a Vectors payload.
func DecodeVectors(b []byte) (*Vectors, error) {
	r := NewReader(b)
	m := &Vectors{Found: r.Bool(), Out: r.Floats(), In: r.Floats()}
	m.Epoch = r.OptUint64()
	return decoded(m, &r)
}

// QueryDist asks the server to estimate the distance between two
// registered hosts (either may also be a landmark address). The server
// parses it with QueryDistView.
type QueryDist struct {
	From, To string
}

// Encode appends the message payload to dst.
func (m *QueryDist) Encode(dst []byte) []byte {
	dst = appendString(dst, m.From)
	return appendString(dst, m.To)
}

// Distance answers QueryDist.
type Distance struct {
	Found bool
	// Millis is the estimated distance in milliseconds.
	Millis float64
}

// Encode appends the message payload to dst.
func (m *Distance) Encode(dst []byte) []byte {
	dst = appendBool(dst, m.Found)
	return appendFloat(dst, m.Millis)
}

// QueryBatch asks the server to estimate the distance from one source to
// every listed target in a single round trip. Targets may be registered
// hosts or landmark addresses; unresolvable targets come back flagged,
// not errored, so one stale candidate does not fail the batch.
type QueryBatch struct {
	From    string
	Targets []string
}

// Encode appends the message payload to dst.
func (m *QueryBatch) Encode(dst []byte) []byte {
	dst = appendString(dst, m.From)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Targets)))
	for _, t := range m.Targets {
		dst = appendString(dst, t)
	}
	return dst
}

// DecodeQueryBatch parses a QueryBatch payload into a message that owns
// its memory: QueryBatchView validates, this copies out. It applies no
// limit of its own beyond what a frame can hold.
func DecodeQueryBatch(b []byte) (*QueryBatch, error) {
	from, views, err := QueryBatchView(b, MaxPayload/2, nil)
	if err != nil {
		return nil, err
	}
	m := &QueryBatch{From: string(from), Targets: make([]string, len(views))}
	for i, t := range views {
		m.Targets[i] = string(t)
	}
	return m, nil
}

// Distances answers QueryBatch: Results is parallel to the request's
// Targets. SrcFound distinguishes "source unknown" (every result is then
// not-found) from "these particular targets are unknown".
type Distances struct {
	SrcFound bool
	Results  []DistResult
	// Epoch is the server's current model epoch; a client registered at
	// a different epoch should re-solve and re-register.
	Epoch uint64
}

// DistResult is one entry of a Distances reply.
type DistResult struct {
	Found bool
	// Millis is the estimated distance in milliseconds.
	Millis float64
}

// Encode appends the message payload to dst.
func (m *Distances) Encode(dst []byte) []byte {
	dst = appendBool(dst, m.SrcFound)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Results)))
	for _, r := range m.Results {
		dst = appendBool(dst, r.Found)
		dst = appendFloat(dst, r.Millis)
	}
	return binary.BigEndian.AppendUint64(dst, m.Epoch)
}

// DecodeDistances parses a Distances payload.
func DecodeDistances(b []byte) (*Distances, error) {
	r := NewReader(b)
	// Each result is exactly 9 bytes.
	m := &Distances{SrcFound: r.Bool(), Results: make([]DistResult, r.Count(9))}
	results := m.Results // a local: the loop would reload the header through m
	for i := range results {
		results[i] = DistResult{Found: r.Bool(), Millis: r.Float64()}
	}
	m.Epoch = r.OptUint64()
	return decoded(m, &r)
}

// QueryKNN asks for the K registered hosts closest to From, by estimated
// distance, in one round trip — the directory-wide generalization of
// mirror selection (§3). The server parses it with QueryKNNView.
type QueryKNN struct {
	From string
	K    uint32
}

// Encode appends the message payload to dst.
func (m *QueryKNN) Encode(dst []byte) []byte {
	dst = appendString(dst, m.From)
	return binary.BigEndian.AppendUint32(dst, m.K)
}

// Neighbors answers QueryKNN: the closest hosts, ascending by estimated
// distance (ties broken by address), excluding the source itself. Fewer
// than K entries come back when the directory holds fewer live hosts.
type Neighbors struct {
	SrcFound bool
	Entries  []NeighborEntry
	// Epoch is the server's current model epoch; a client registered at
	// a different epoch should re-solve and re-register.
	Epoch uint64
}

// NeighborEntry is one k-nearest result.
type NeighborEntry struct {
	Addr string
	// Millis is the estimated distance in milliseconds.
	Millis float64
}

// Encode appends the message payload to dst.
func (m *Neighbors) Encode(dst []byte) []byte {
	dst = appendBool(dst, m.SrcFound)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Entries)))
	for i := range m.Entries {
		dst = appendString(dst, m.Entries[i].Addr)
		dst = appendFloat(dst, m.Entries[i].Millis)
	}
	return binary.BigEndian.AppendUint64(dst, m.Epoch)
}

// DecodeNeighbors parses a Neighbors payload.
func DecodeNeighbors(b []byte) (*Neighbors, error) {
	r := NewReader(b)
	// Each entry costs at least 10 bytes (2-byte length + 8-byte float).
	m := &Neighbors{SrcFound: r.Bool(), Entries: make([]NeighborEntry, r.Count(10))}
	for i := range m.Entries {
		m.Entries[i] = NeighborEntry{Addr: r.String(), Millis: r.Float64()}
	}
	m.Epoch = r.OptUint64()
	return decoded(m, &r)
}
