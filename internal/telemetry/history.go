package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

// The history store is an append-only, segmented binary log of what the
// server actually did: every accepted report frame, every fit/revision
// the lifecycle published, and a per-epoch model error summary. It is
// the durable half of the telemetry subsystem — metrics answer "how is
// it doing now", history answers "what happened", and cmd/ides-inspect
// can feed a recorded window's frames to a fresh leader to ask "what
// would have happened under a different configuration".
//
// On-disk layout: a directory of segment files named hist-NNNNNNNN.seg,
// each starting with an 8-byte header ("IDESHIS" + format version)
// followed by length-prefixed records:
//
//	length  uint32   byte count of type+payload
//	type    uint8    record type
//	payload [length-1]byte
//	crc     uint32   IEEE CRC-32 of type+payload
//
// Fields inside payloads are big-endian fixed layouts built from the
// internal/wire helpers and read back through wire.Reader (which
// refuses a count the remaining bytes cannot hold before anything is
// sized by it), and follow wire's append-only evolution policy: new
// fields go at the end, decoders treat absent trailing fields as zero,
// and readers skip record types they do not recognize.
// A record is only as durable as the OS page cache unless Sync is
// called; a crash can tear the final record, which Open and Iterate
// tolerate by truncating/stopping at the torn tail; tornTail says what
// counts as one, and anything else is an error.

// Segment format constants.
const (
	segMagic      = "IDESHIS"
	segVersion    = byte(1)
	segHeaderSize = 8
	// maxRecordSize bounds length-prefixed reads so a corrupt length
	// cannot demand gigabytes; a ConfigRecord for 10k landmarks is
	// ~200 KB, so 16 MB is ample.
	maxRecordSize = 16 << 20
)

// Record types; type 2 (one measurement per record) is retired.
const (
	recConfig       = byte(1)
	recEvent        = byte(3)
	recEpochSummary = byte(4)
	recReport       = byte(5)
)

// Errors returned by history decoding.
var (
	// ErrUnknownRecord marks a record type this build does not know;
	// Iterate skips such records (forward compatibility).
	ErrUnknownRecord = errors.New("telemetry: unknown history record type")
	// errShortRecord is what DecodeRecord returns for a payload that ends
	// before its record does; it is also a wire.ErrShortPayload.
	errShortRecord = fmt.Errorf("telemetry: history record truncated: %w", wire.ErrShortPayload)
)

// Record is one history log entry. Implementations are the *Record
// structs below; decode with DecodeRecord or iterate a directory with
// Iterate/ReadAll.
type Record interface {
	// Type returns the on-disk record type byte.
	Type() byte
	// AppendPayload appends the record's payload encoding to dst.
	AppendPayload(dst []byte) []byte
}

// ConfigRecord opens every recording: the server configuration the
// subsequent records were produced under, everything a replay needs to
// rebuild an equivalent deployment.
type ConfigRecord struct {
	TimeUnixNanos int64
	Dim           int
	Algorithm     string // core.Algorithm flag spelling ("svd", "nmf")
	Solver        string // solve.Kind flag spelling ("batch", "sgd")
	Seed          uint64
	BaseEpoch     uint64
	// DriftThreshold is the solver drift at which a corrective full fit
	// bumps the epoch; 0 means the server default, negative disabled.
	DriftThreshold float64
	// Landmarks is the server's landmark ordering.
	Landmarks []string
}

// Type implements Record.
func (r *ConfigRecord) Type() byte { return recConfig }

// AppendPayload implements Record.
func (r *ConfigRecord) AppendPayload(dst []byte) []byte {
	dst = wire.AppendUint64(dst, uint64(r.TimeUnixNanos))
	dst = wire.AppendUint32(dst, uint32(r.Dim))
	dst = wire.AppendString(dst, r.Algorithm)
	dst = wire.AppendString(dst, r.Solver)
	dst = wire.AppendUint64(dst, r.Seed)
	dst = wire.AppendUint64(dst, r.BaseEpoch)
	dst = wire.AppendFloat64(dst, r.DriftThreshold)
	dst = wire.AppendUint32(dst, uint32(len(r.Landmarks)))
	for _, lm := range r.Landmarks {
		dst = wire.AppendString(dst, lm)
	}
	return dst
}

func decodeConfig(r *wire.Reader) *ConfigRecord {
	rec := &ConfigRecord{
		TimeUnixNanos:  int64(r.Uint64()),
		Dim:            int(r.Uint32()),
		Algorithm:      r.String(),
		Solver:         r.String(),
		Seed:           r.Uint64(),
		BaseEpoch:      r.Uint64(),
		DriftThreshold: r.Float64(),
		// Each landmark name needs at least its u16 length prefix.
		Landmarks: make([]string, r.Count(2)),
	}
	for i := range rec.Landmarks {
		rec.Landmarks[i] = r.String()
	}
	return rec
}

// ReportRecord is one accepted landmark report frame: the ReportRTT the
// leader admitted, holding only the entries it handed the solver, plus
// when it arrived. Its payload is the time followed by the frame's wire
// encoding, so a replay hands the leader the message a landmark sent.
type ReportRecord struct {
	TimeUnixNanos int64
	Report        wire.ReportRTT
}

// Type implements Record.
func (r *ReportRecord) Type() byte { return recReport }

// AppendPayload implements Record.
func (r *ReportRecord) AppendPayload(dst []byte) []byte {
	return r.Report.Encode(wire.AppendUint64(dst, uint64(r.TimeUnixNanos)))
}

// EventKind names a model lifecycle transition in an EventRecord.
type EventKind uint8

// Event kinds.
const (
	// EventFit is a completed full batch fit: a new epoch.
	EventFit EventKind = 1
	// EventRevision is an incremental SGD model publication within the
	// current epoch.
	EventRevision EventKind = 2
	// EventFitError is a failed fit attempt (model unchanged).
	EventFitError EventKind = 3
)

// String returns the kind's log spelling.
func (k EventKind) String() string {
	switch k {
	case EventFit:
		return "fit"
	case EventRevision:
		return "revision"
	case EventFitError:
		return "fit_error"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// EventRecord is one model lifecycle transition: a fit, an incremental
// revision, or a failed fit, with the latency and drift observed at the
// transition.
type EventRecord struct {
	TimeUnixNanos int64
	Kind          EventKind
	Epoch, Rev    uint64
	DurationNanos int64
	Drift         float64
	QueueDepth    int // delta-queue depth after the transition
}

// Type implements Record.
func (r *EventRecord) Type() byte { return recEvent }

// AppendPayload implements Record.
func (r *EventRecord) AppendPayload(dst []byte) []byte {
	dst = wire.AppendUint64(dst, uint64(r.TimeUnixNanos))
	dst = append(dst, byte(r.Kind))
	dst = wire.AppendUint64(dst, r.Epoch)
	dst = wire.AppendUint64(dst, r.Rev)
	dst = wire.AppendUint64(dst, uint64(r.DurationNanos))
	dst = wire.AppendFloat64(dst, r.Drift)
	return wire.AppendUint32(dst, uint32(r.QueueDepth))
}

func decodeEvent(r *wire.Reader) *EventRecord {
	return &EventRecord{
		TimeUnixNanos: int64(r.Uint64()),
		Kind:          EventKind(r.Uint8()),
		Epoch:         r.Uint64(),
		Rev:           r.Uint64(),
		DurationNanos: int64(r.Uint64()),
		Drift:         r.Float64(),
		QueueDepth:    int(r.Uint32()),
	}
}

// EpochSummaryRecord summarizes the model's fit error over the
// observed landmark matrix at a model publication: the absolute
// relative error (paper Eq. 10) of each measured pair against the
// published model, reduced to summary statistics.
type EpochSummaryRecord struct {
	TimeUnixNanos int64
	Epoch, Rev    uint64
	Samples       int // measured pairs scored
	MeanAbsRel    float64
	MedianAbsRel  float64
	P90AbsRel     float64
	MaxAbsRel     float64
}

// Type implements Record.
func (r *EpochSummaryRecord) Type() byte { return recEpochSummary }

// AppendPayload implements Record.
func (r *EpochSummaryRecord) AppendPayload(dst []byte) []byte {
	dst = wire.AppendUint64(dst, uint64(r.TimeUnixNanos))
	dst = wire.AppendUint64(dst, r.Epoch)
	dst = wire.AppendUint64(dst, r.Rev)
	dst = wire.AppendUint32(dst, uint32(r.Samples))
	dst = wire.AppendFloat64(dst, r.MeanAbsRel)
	dst = wire.AppendFloat64(dst, r.MedianAbsRel)
	dst = wire.AppendFloat64(dst, r.P90AbsRel)
	return wire.AppendFloat64(dst, r.MaxAbsRel)
}

func decodeEpochSummary(r *wire.Reader) *EpochSummaryRecord {
	return &EpochSummaryRecord{
		TimeUnixNanos: int64(r.Uint64()),
		Epoch:         r.Uint64(),
		Rev:           r.Uint64(),
		Samples:       int(r.Uint32()),
		MeanAbsRel:    r.Float64(),
		MedianAbsRel:  r.Float64(),
		P90AbsRel:     r.Float64(),
		MaxAbsRel:     r.Float64(),
	}
}

// DecodeRecord decodes one record payload by type byte. Unknown types
// return ErrUnknownRecord so iterators can skip them.
func DecodeRecord(typ byte, payload []byte) (Record, error) {
	r := wire.NewReader(payload)
	var rec Record
	switch typ {
	case recConfig:
		rec = decodeConfig(&r)
	case recReport:
		rep, err := wire.DecodeReportRTT(payload[min(8, len(payload)):])
		if err != nil {
			return nil, errShortRecord
		}
		rec = &ReportRecord{TimeUnixNanos: int64(r.Uint64()), Report: *rep}
	case recEvent:
		rec = decodeEvent(&r)
	case recEpochSummary:
		rec = decodeEpochSummary(&r)
	default:
		return nil, ErrUnknownRecord
	}
	if r.Err() != nil {
		return nil, errShortRecord
	}
	return rec, nil
}

// AppendRecord appends rec's full on-disk framing (length, type,
// payload, CRC) to dst — exposed for the fuzz harness and tests; Store
// callers just Append.
func AppendRecord(dst []byte, rec Record) []byte {
	payload := rec.AppendPayload(nil)
	dst = wire.AppendUint32(dst, uint32(len(payload)+1))
	body := append([]byte{rec.Type()}, payload...)
	dst = append(dst, body...)
	return wire.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	// Dir is the directory segments live in (required; created if
	// absent).
	Dir string
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size. Default 8 MB.
	SegmentBytes int64
	// MaxSegments prunes the oldest segments beyond this count after a
	// rotation. 0 keeps everything.
	MaxSegments int
	// Now supplies record timestamps for the convenience append
	// helpers. Default time.Now.
	Now func() time.Time
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Store is the append half of the history log. All methods are safe
// for concurrent use — request handlers and the lifecycle worker append
// interleaved; Open recovers from a previous crash by truncating a torn
// final record. A nil *Store is a valid no-op recorder: Append and
// Close do nothing, so components take an optional *Store without
// branching.
type Store struct {
	cfg StoreConfig

	mu    sync.Mutex
	f     *os.File
	seq   int   // current segment sequence number
	size  int64 // current segment size
	segs  []int // live segment sequence numbers, ascending
	buf   []byte
	clock func() time.Time
}

// OpenStore opens (creating if needed) the history log in cfg.Dir and
// positions for appending: the newest segment is scanned and any torn
// final record left by a crash is truncated away before new records go
// after it; other corruption is an error and leaves the file as it was.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("telemetry: history store needs a directory")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: creating history dir: %w", err)
	}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, segs: segs, clock: cfg.Now}
	if len(segs) == 0 {
		if err := s.openSegment(1); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Reopen the newest segment: verify its records and truncate a torn
	// tail so appends resume from a clean one.
	seq := segs[len(segs)-1]
	path := segmentPath(cfg.Dir, seq)
	end, err := scanTail(path)
	if err != nil {
		return nil, err
	}
	if end < segHeaderSize {
		// The header itself is missing or mangled; rewrite the segment
		// from scratch.
		s.segs = s.segs[:len(s.segs)-1]
		if err := s.openSegment(seq); err != nil {
			return nil, err
		}
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: reopening history segment: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: truncating torn history tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	s.f, s.seq, s.size = f, seq, end
	return s, nil
}

// scanTail walks one segment's records and returns the byte offset just
// past the last intact record — the truncation point for crash
// recovery. A missing or mangled header yields offset 0 (rewrite the
// whole file); a corrupt record that is not a torn tail is an error.
func scanTail(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("telemetry: reading history segment: %w", err)
	}
	if len(data) < segHeaderSize || string(data[:len(segMagic)]) != segMagic || data[segHeaderSize-1] != segVersion {
		return 0, nil
	}
	off := int64(segHeaderSize)
	b := data[segHeaderSize:]
	for {
		n, rest, ok := nextRecord(b)
		if !ok {
			if !tornTail(b) {
				return 0, fmt.Errorf("telemetry: %s: corrupt record mid-log", path)
			}
			return off, nil
		}
		off += n
		b = rest
	}
}

// nextRecord frames one record off b, returning its full framed length
// and the remainder. ok is false when b holds no complete, checksummed
// record — a clean end, a torn tail or corruption; tornTail tells them
// apart.
func nextRecord(b []byte) (n int64, rest []byte, ok bool) {
	if len(b) < 4 {
		return 0, nil, false
	}
	ln := int(binary.BigEndian.Uint32(b))
	if ln < 1 || ln > maxRecordSize || len(b) < 4+ln+4 {
		return 0, nil, false
	}
	body := b[4 : 4+ln]
	crc := binary.BigEndian.Uint32(b[4+ln:])
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, false
	}
	return int64(4 + ln + 4), b[4+ln+4:], true
}

// tornTail reports whether b, which nextRecord refused, is what a crash
// mid-append can leave: nothing, a record the end of the data cuts short
// or ends, or an unusable length prefix. A bad checksum with bytes after
// it is not: appends write whole records.
func tornTail(b []byte) bool {
	if len(b) < 4 {
		return true
	}
	ln := int(binary.BigEndian.Uint32(b))
	return ln < 1 || ln > maxRecordSize || len(b) <= 4+ln+4
}

func (s *Store) openSegment(seq int) error {
	f, err := os.OpenFile(segmentPath(s.cfg.Dir, seq), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: creating history segment: %w", err)
	}
	hdr := append([]byte(segMagic), segVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: writing segment header: %w", err)
	}
	s.f, s.seq, s.size = f, seq, segHeaderSize
	s.segs = append(s.segs, seq)
	return nil
}

// Append writes one record, rotating and pruning segments as
// configured. Each record reaches the file in a single write; a crash
// can tear at most the final record, which the next Open truncates.
func (s *Store) Append(rec Record) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("telemetry: history store is closed")
	}
	s.buf = AppendRecord(s.buf[:0], rec)
	if s.size+int64(len(s.buf)) > s.cfg.SegmentBytes && s.size > segHeaderSize {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	n, err := s.f.Write(s.buf)
	s.size += int64(n)
	if err != nil {
		return fmt.Errorf("telemetry: appending history record: %w", err)
	}
	return nil
}

// Now returns the store clock's current time in unix nanoseconds — the
// timestamp recorders stamp records with (0 on a nil store).
func (s *Store) Now() int64 {
	if s == nil {
		return 0
	}
	return s.clock().UnixNano()
}

func (s *Store) rotate() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("telemetry: closing history segment: %w", err)
	}
	if err := s.openSegment(s.seq + 1); err != nil {
		return err
	}
	for s.cfg.MaxSegments > 0 && len(s.segs) > s.cfg.MaxSegments {
		old := s.segs[0]
		s.segs = s.segs[1:]
		if err := os.Remove(segmentPath(s.cfg.Dir, old)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("telemetry: pruning history segment: %w", err)
		}
	}
	return nil
}

// Sync flushes the current segment to stable storage.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close syncs and closes the current segment.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Iterate streams every decodable record in dir's segments in write
// order, calling fn for each. Unknown record types are skipped
// (forward compatibility). A torn tail (tornTail) on the newest segment
// ends iteration cleanly; any other damaged record is reported as an
// error, since only the newest segment's end can be mid-write.
// fn returning an error stops iteration and returns that error.
func Iterate(dir string, fn func(Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("telemetry: no history segments in %s", dir)
	}
	for i, seq := range segs {
		path := segmentPath(dir, seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("telemetry: reading history segment: %w", err)
		}
		last := i == len(segs)-1
		if len(data) < segHeaderSize || string(data[:len(segMagic)]) != segMagic || data[segHeaderSize-1] != segVersion {
			if last && len(data) < segHeaderSize {
				return nil
			}
			return fmt.Errorf("telemetry: %s: bad segment header", path)
		}
		b := data[segHeaderSize:]
		for len(b) > 0 {
			n, rest, ok := nextRecord(b)
			if !ok {
				if last && tornTail(b) {
					return nil
				}
				return fmt.Errorf("telemetry: %s: corrupt record mid-log", path)
			}
			body := b[4 : n-4]
			rec, err := DecodeRecord(body[0], body[1:])
			if err != nil {
				if errors.Is(err, ErrUnknownRecord) {
					b = rest
					continue
				}
				return fmt.Errorf("telemetry: %s: %w", path, err)
			}
			if err := fn(rec); err != nil {
				return err
			}
			b = rest
		}
	}
	return nil
}

// ReadAll collects every record in dir in write order.
func ReadAll(dir string) ([]Record, error) {
	var out []Record
	err := Iterate(dir, func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("hist-%08d.seg", seq))
}

// listSegments returns the ascending sequence numbers of dir's
// segments.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("telemetry: listing history dir: %w", err)
	}
	var segs []int
	for _, e := range ents {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "hist-%d.seg", &seq); err == nil && fmt.Sprintf("hist-%08d.seg", seq) == e.Name() {
			segs = append(segs, seq)
		}
	}
	sort.Ints(segs)
	return segs, nil
}
