package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
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

// TestScanTailGarbageHeader holds the header rule: a newest segment
// shorter than a header, or of zero bytes only, is one a crash tore
// while creating it, so OpenStore rewrites it and ReadAll yields nothing
// from it; a complete header of another magic or version is an error in
// both, and OpenStore leaves the file byte for byte as it was — a
// rollback past a format change must not wipe the newer log.
func TestScanTailGarbageHeader(t *testing.T) {
	v2 := append([]byte(segMagic), 2)
	v2 = AppendRecord(v2, report(0, "lm-0", "lm-1", 3))
	for _, tc := range []struct {
		name    string
		data    []byte
		rewrite bool
	}{
		{"empty", nil, true},
		{"magic cut at 3 bytes", []byte(segMagic[:3]), true},
		{"8 zero bytes", make([]byte, segHeaderSize), true},
		{"not a segment", []byte("not a segment"), false},
		{"version 2", v2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := segmentPath(dir, 1)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, readErr := ReadAll(dir)
			st, openErr := OpenStore(StoreConfig{Dir: dir})
			if !tc.rewrite {
				if readErr == nil || openErr == nil {
					t.Fatalf("ReadAll error %v, OpenStore error %v: want both to refuse the header", readErr, openErr)
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, tc.data) {
					t.Fatalf("OpenStore touched the segment: %d -> %d bytes (read error %v)", len(tc.data), len(after), err)
				}
				return
			}
			if readErr != nil || len(got) != 0 {
				t.Fatalf("ReadAll over a torn header: %d records, error %v; want none and no error", len(got), readErr)
			}
			if openErr != nil {
				t.Fatal(openErr)
			}
			if err := st.Append(report(0, "lm-0", "lm-1", 7)); err != nil {
				t.Fatal(err)
			}
			st.Close()
			if got, err := ReadAll(dir); err != nil || len(got) != 1 {
				t.Fatalf("got %d records after header rewrite (error %v), want 1", len(got), err)
			}
		})
	}
}

// TestStoreReopenMatchesReadAll: OpenStore's recovery and ReadAll read
// the same bytes the same way. A real two-segment log has its newest
// segment cut at every offset, its header zeroed or versioned 2, and one
// byte flipped at the start, middle and end of each record; after every
// mutation either both refuse it and the file is untouched, or OpenStore
// keeps exactly the records ReadAll returned and an Append reads back
// after them.
func TestStoreReopenMatchesReadAll(t *testing.T) {
	base := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: base, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The report fills the first segment; the two bare reports share
	// the second.
	for _, rec := range []Record{report(1, "lm-0", "lm-1", 5), &ReportRecord{TimeUnixNanos: 2}, &ReportRecord{TimeUnixNanos: 3}} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(base)
	if err != nil || len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v (%v)", segs, err)
	}
	older, err := os.ReadFile(segmentPath(base, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	newest, err := os.ReadFile(segmentPath(base, segs[1]))
	if err != nil {
		t.Fatal(err)
	}
	var recStarts []int
	for off := segHeaderSize; off < len(newest); {
		n, _, ok := nextRecord(newest[off:])
		if !ok {
			t.Fatalf("newest segment does not frame at byte %d", off)
		}
		recStarts = append(recStarts, off)
		off += int(n)
	}
	if len(recStarts) != 2 {
		t.Fatalf("newest segment holds %d records, want 2", len(recStarts))
	}

	type mutation struct {
		name string
		data []byte
	}
	var muts []mutation
	for cut := 0; cut < len(newest); cut++ {
		muts = append(muts, mutation{fmt.Sprintf("cut at %d", cut), bytes.Clone(newest[:cut])})
	}
	zeroed := bytes.Clone(newest)
	copy(zeroed, make([]byte, segHeaderSize))
	v2 := bytes.Clone(newest)
	v2[segHeaderSize-1] = 2
	muts = append(muts, mutation{"zeroed header", zeroed}, mutation{"version 2", v2})
	for i, start := range recStarts {
		end := len(newest)
		if i+1 < len(recStarts) {
			end = recStarts[i+1]
		}
		for _, at := range []int{start, (start + end) / 2, end - 1} {
			flipped := bytes.Clone(newest)
			flipped[at] ^= 0xff
			muts = append(muts, mutation{fmt.Sprintf("record %d byte %d flipped", i, at), flipped})
		}
	}

	extra := report(9, "lm-1", "lm-0", 8)
	for _, m := range muts {
		dir := t.TempDir()
		path := segmentPath(dir, segs[1])
		if err := os.WriteFile(segmentPath(dir, segs[0]), older, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, m.data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, readErr := ReadAll(dir)
		st, openErr := OpenStore(StoreConfig{Dir: dir})
		if readErr != nil || openErr != nil {
			if readErr == nil || openErr == nil {
				t.Fatalf("%s: ReadAll error %v, OpenStore error %v: want both or neither", m.name, readErr, openErr)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, m.data) {
				t.Fatalf("%s: OpenStore refused the segment but changed it: %d -> %d bytes (read error %v)", m.name, len(m.data), len(after), err)
			}
			continue
		}
		if kept, err := ReadAll(dir); err != nil || !sameRecords(kept, want) {
			t.Fatalf("%s: OpenStore kept %d records (error %v), ReadAll returned %d", m.name, len(kept), err, len(want))
		}
		if err := st.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadAll(dir); err != nil || !sameRecords(got, append(want, Record(extra))) {
			t.Fatalf("%s: after one Append, %d records (error %v), want the %d ReadAll returned plus it", m.name, len(got), err, len(want))
		}
	}
}

// sameRecords compares two record lists by their on-disk framing.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(AppendRecord(nil, a[i]), AppendRecord(nil, b[i])) {
			return false
		}
	}
	return true
}

// TestStoreAppendAllocs: Append frames a record in place in the store's
// reused buffer, so appending costs no heap allocation after the first
// (copying the payload and the body out cost five).
func TestStoreAppendAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := report(1, "lm-0", "lm-1", 12.5)
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Store.Append: %.0f allocs per record", allocs)
	if allocs != 0 {
		t.Errorf("Store.Append allocates %.0f times per record, want 0", allocs)
	}
}
