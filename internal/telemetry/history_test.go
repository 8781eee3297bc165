package telemetry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

func testRecords() []Record {
	return []Record{
		&ConfigRecord{
			TimeUnixNanos:  100,
			Dim:            8,
			Algorithm:      "svd",
			Solver:         "sgd",
			Seed:           42,
			BaseEpoch:      7,
			DriftThreshold: 0.25,
			Landmarks:      []string{"lm-0", "lm-1", "lm-2"},
		},
		&ReportRecord{TimeUnixNanos: 200, Report: wire.ReportRTT{From: "lm-0", Entries: []wire.RTTEntry{
			{To: "lm-1", RTTMillis: 33.5}, {To: "lm-2", RTTMillis: 12.25},
		}}},
		report(201, "lm-2", "lm-0", 12.25),
		&EventRecord{TimeUnixNanos: 300, Kind: EventFit, Epoch: 8, Rev: 0, DurationNanos: 1_500_000, Drift: 0, QueueDepth: 2},
		&EventRecord{TimeUnixNanos: 310, Kind: EventRevision, Epoch: 8, Rev: 1, DurationNanos: 9_000, Drift: 0.04, QueueDepth: 0},
		&EpochSummaryRecord{TimeUnixNanos: 320, Epoch: 8, Rev: 1, Samples: 6, MeanAbsRel: 0.1, MedianAbsRel: 0.08, P90AbsRel: 0.2, MaxAbsRel: 0.3},
	}
}

// report is a one-entry report frame record.
func report(t int64, from, to string, ms float64) *ReportRecord {
	return &ReportRecord{TimeUnixNanos: t, Report: wire.ReportRTT{From: from, Entries: []wire.RTTEntry{{To: to, RTTMillis: ms}}}}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		got, err := DecodeRecord(rec.Type(), rec.AppendPayload(nil))
		if err != nil {
			t.Fatalf("decode %T: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", rec, got, rec)
		}
	}
}

func TestStoreAppendIterate(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for _, rec := range want {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAll:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayParentWrittenHistory: testdata/history-d0a0f97 holds the
// records testRecords() returned at commit d0a0f97, as that commit's
// Store wrote them — the last commit whose record decoders were
// hand-threaded, before wire.Reader. Its two report records are of the
// retired type 2 (one measurement each) and are skipped; every other
// record reads back equal and re-encodes to the bytes the segment holds.
func TestReplayParentWrittenHistory(t *testing.T) {
	dir := filepath.Join("testdata", "history-d0a0f97")
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for _, rec := range testRecords() {
		if _, ok := rec.(*ReportRecord); !ok {
			want = append(want, rec)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAll:\n got %+v\nwant %+v", got, want)
	}
	onDisk, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	retired := 0
	for b := onDisk[segHeaderSize:]; len(b) > 0; {
		n, rest, ok := nextRecord(b)
		if !ok {
			t.Fatalf("committed segment does not frame at byte %d", len(onDisk)-len(b))
		}
		if b[4] == 2 {
			retired++
		} else {
			kept = append(kept, b[:n])
		}
		b = rest
	}
	if retired != 2 || len(kept) != len(got) {
		t.Fatalf("segment holds %d type-2 and %d other records, want 2 and %d", retired, len(kept), len(got))
	}
	for i, rec := range got {
		if !bytes.Equal(AppendRecord(nil, rec), kept[i]) {
			t.Errorf("%T re-encodes to bytes the segment does not hold", rec)
		}
	}
}

func TestStoreNilNoop(t *testing.T) {
	var st *Store
	if err := st.Append(&ReportRecord{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Now() != 0 {
		t.Fatal("nil store accessors should zero")
	}
}

func TestStoreRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record after the first rotates.
	st, err := OpenStore(StoreConfig{Dir: dir, SegmentBytes: 64, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		rec := report(int64(i), "lm-0", "lm-1", float64(i))
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments after pruning = %v, want 3", segs)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning drops oldest records; the survivors must be an exact
	// suffix of what was written.
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("got %d records, want a proper suffix of %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want[len(want)-len(got):]) {
		t.Fatalf("surviving records are not a suffix:\n got %+v", got)
	}
}

// TestCrashRecovery is the satellite's scenario: a torn final record
// must be truncated on reopen with all prior records intact.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for _, rec := range want {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a full extra record written, then
	// chopped partway through.
	path := segmentPath(dir, 1)
	torn := AppendRecord(nil, report(999, "lm-1", "lm-2", 5))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Iterate tolerates the torn tail on the newest segment.
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll over torn tail: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail leaked into iteration:\n got %+v\nwant %+v", got, want)
	}

	// Reopen truncates the tear...
	before, _ := os.Stat(path)
	st, err = OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("reopen did not truncate: %d -> %d bytes", before.Size(), after.Size())
	}
	// ...and appending resumes cleanly after the prior records.
	extra := report(400, "lm-1", "lm-0", 9)
	if err := st.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, append(want, Record(extra))) {
		t.Fatalf("post-recovery records wrong:\n got %+v", got)
	}
}

func TestCorruptMidLogIsAnError(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Append(report(0, "lm-0", "lm-1", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v (%v)", segs, err)
	}
	// Flip a payload byte in the FIRST segment: corruption before the
	// newest segment cannot be a legitimate torn tail.
	path := segmentPath(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(dir); err == nil {
		t.Fatal("corruption mid-log should be an error, not a silent stop")
	}
}

// TestCorruptNewestSegmentIsAnError: a record that fails its checksum
// with intact records after it is corruption even in the newest
// segment. Iterate must not stop there as if at a torn tail, and
// OpenStore must not truncate away every record after it.
func TestCorruptNewestSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record.
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+len(AppendRecord(nil, recs[0]))+4+1+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadAll(dir); err == nil {
		t.Fatalf("ReadAll returned %d records and no error over a corrupt record", len(got))
	}
	if _, err := OpenStore(StoreConfig{Dir: dir}); err == nil {
		t.Fatal("OpenStore accepted a segment with a corrupt record before intact ones")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("OpenStore rewrote the segment: %d -> %d bytes (read error %v)", len(data), len(after), err)
	}
}

func TestUnknownRecordTypeSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	known := report(1, "lm-0", "lm-1", 2)
	if err := st.Append(known); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(&fakeRecord{typ: 0x7f}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(known); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("unknown record not skipped: got %d records", len(got))
	}
}

// fakeRecord stands in for a record type from a future build.
type fakeRecord struct{ typ byte }

func (r *fakeRecord) Type() byte                      { return r.typ }
func (r *fakeRecord) AppendPayload(dst []byte) []byte { return append(dst, 1, 2, 3) }

func TestOpenStoreEmptyDirRequired(t *testing.T) {
	if _, err := OpenStore(StoreConfig{}); err == nil {
		t.Fatal("OpenStore without a dir should fail")
	}
}

func TestIterateEmptyDir(t *testing.T) {
	if err := Iterate(t.TempDir(), func(Record) error { return nil }); err == nil {
		t.Fatal("Iterate over a segmentless dir should fail")
	}
}

func TestIterateCallbackError(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(report(0, "lm-0", "lm-1", 1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	sentinel := errors.New("stop")
	if err := Iterate(dir, func(Record) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestStoreClock(t *testing.T) {
	now := time.Unix(0, 12345)
	st, err := OpenStore(StoreConfig{Dir: t.TempDir(), Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Now() != 12345 {
		t.Fatalf("store clock = %d, want 12345", st.Now())
	}
}

func TestScanTailGarbageHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist-00000001.seg")
	if err := os.WriteFile(path, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	// OpenStore rewrites a garbage-headed newest segment from scratch.
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(report(0, "lm-0", "lm-1", 7)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records after header rewrite, want 1", len(got))
	}
}
