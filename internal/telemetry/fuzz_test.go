package telemetry

import (
	"bytes"
	"testing"

	"github.com/ides-go/ides/internal/wire"
)

// FuzzDecodeRecord hammers the history record decoder with arbitrary
// type/payload pairs: it must never panic, and whatever it accepts must
// re-encode to the identical payload prefix it consumed from (decode is
// tolerant of trailing bytes per the append-only evolution policy, so
// round-tripping compares against the canonical re-encoding's length).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []Record{
		&ConfigRecord{Dim: 8, Algorithm: "svd", Solver: "batch", Landmarks: []string{"a", "b"}},
		&ReportRecord{TimeUnixNanos: 1, Report: wire.ReportRTT{From: "a", Entries: []wire.RTTEntry{
			{To: "b", RTTMillis: 4.5}, {To: "c", RTTMillis: 0.25},
		}}},
		&EventRecord{Kind: EventFit, Epoch: 1, DurationNanos: 5, Drift: 0.1, QueueDepth: 2},
		&EpochSummaryRecord{Epoch: 1, Rev: 2, Samples: 3, MeanAbsRel: 0.5},
	} {
		f.Add(rec.Type(), rec.AppendPayload(nil))
	}
	f.Add(byte(0xff), []byte{1, 2, 3})
	f.Add(recConfig, []byte{})

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		rec, err := DecodeRecord(typ, payload)
		if err != nil {
			return
		}
		// Accepted records must re-encode under the same type and decode
		// back to an equal value (idempotent round trip).
		enc := rec.AppendPayload(nil)
		if rec.Type() != typ {
			t.Fatalf("decoded record reports type %d, input was %d", rec.Type(), typ)
		}
		again, err := DecodeRecord(typ, enc)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		// Compare via encodings, which are bit-exact even for NaN float
		// fields where reflect.DeepEqual would report a spurious diff.
		if !bytes.Equal(again.AppendPayload(nil), enc) {
			t.Fatalf("round trip diverged:\nfirst  %+v\nsecond %+v", rec, again)
		}
		// The canonical encoding must be a prefix-compatible reading of
		// the input: decoding consumed exactly the fields enc contains.
		if len(enc) <= len(payload) && !bytes.Equal(enc, payload[:len(enc)]) {
			// NaN payload bits re-encode bit-identically via Float64bits,
			// so any mismatch is a real decoder bug.
			t.Fatalf("canonical encoding is not a prefix of the accepted input\nin  %x\nout %x", payload, enc)
		}
	})
}

// FuzzScanSegment feeds arbitrary bytes through the segment scanner:
// framing recovery — nextRecord, and tornTail on whatever it refuses —
// must never panic and never report an offset past the data it was
// given.
func FuzzScanSegment(f *testing.F) {
	good := append([]byte(segMagic), segVersion)
	good = AppendRecord(good, report(1, "a", "b", 2))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := data
		total := 0
		for {
			n, rest, ok := nextRecord(b)
			if !ok {
				tornTail(b)
				break
			}
			if n <= 0 || int(n) > len(b) {
				t.Fatalf("nextRecord returned n=%d for %d bytes", n, len(b))
			}
			total += int(n)
			b = rest
		}
		if total > len(data) {
			t.Fatalf("scanner consumed %d of %d bytes", total, len(data))
		}
	})
}
