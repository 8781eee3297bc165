package telemetry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
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
		&ReportRecord{TimeUnixNanos: 200, From: 0, To: 1, Millis: 33.5},
		&ReportRecord{TimeUnixNanos: 201, From: 2, To: 0, Millis: 12.25},
		&EventRecord{TimeUnixNanos: 300, Kind: EventFit, Epoch: 8, Rev: 0, DurationNanos: 1_500_000, Drift: 0, QueueDepth: 2},
		&EventRecord{TimeUnixNanos: 310, Kind: EventRevision, Epoch: 8, Rev: 1, DurationNanos: 9_000, Drift: 0.04, QueueDepth: 0},
		&EpochSummaryRecord{TimeUnixNanos: 320, Epoch: 8, Rev: 1, Samples: 6, MeanAbsRel: 0.1, MedianAbsRel: 0.08, P90AbsRel: 0.2, MaxAbsRel: 0.3},
	}
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

// TestReplayParentWrittenHistory: testdata/history-d0a0f97 holds
// testRecords() as the Store of commit d0a0f97 wrote them — the last
// commit whose record decoders were hand-threaded, before wire.Reader.
// It replays to the same records, and today's Store still writes the
// same bytes.
func TestReplayParentWrittenHistory(t *testing.T) {
	dir := filepath.Join("testdata", "history-d0a0f97")
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := testRecords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAll:\n got %+v\nwant %+v", got, want)
	}
	segment := append([]byte(segMagic), segVersion)
	for _, rec := range got {
		segment = AppendRecord(segment, rec)
	}
	if onDisk, err := os.ReadFile(segmentPath(dir, 1)); err != nil || !bytes.Equal(segment, onDisk) {
		t.Fatalf("re-encoded segment differs from the committed one (read error %v)", err)
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
		rec := &ReportRecord{TimeUnixNanos: int64(i), From: i, To: i + 1, Millis: float64(i)}
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
	torn := AppendRecord(nil, &ReportRecord{TimeUnixNanos: 999, From: 1, To: 2, Millis: 5})
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
	extra := &ReportRecord{TimeUnixNanos: 400, From: 1, To: 0, Millis: 9}
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
		if err := st.Append(&ReportRecord{From: i, To: i + 1, Millis: 1}); err != nil {
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

func TestUnknownRecordTypeSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	known := &ReportRecord{TimeUnixNanos: 1, From: 0, To: 1, Millis: 2}
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
	if err := st.Append(&ReportRecord{Millis: 1}); err != nil {
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
	if err := st.Append(&ReportRecord{Millis: 7}); err != nil {
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
