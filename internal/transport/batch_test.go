package transport

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"github.com/ides-go/ides/internal/wire"
)

// drainBatch plays the writer: it takes batches until the batch ends,
// parsing every one into whole frames — a frame split across two takes
// fails the parse — and returns the stream IDs in the order they came out.
func drainBatch(t *testing.T, b *frameBatch) []uint32 {
	t.Helper()
	var streams []uint32
	var buf []byte
	for {
		var frames int
		var ok bool
		if buf, frames, ok = b.take(buf); !ok {
			return streams
		}
		r := bytes.NewReader(buf)
		n := 0
		for ; r.Len() > 0; n++ {
			typ, stream, payload, _, err := wire.ReadMuxFrameInto(r, nil)
			if err != nil {
				t.Fatalf("batch of %d frames does not parse at frame %d: %v", frames, n, err)
			}
			// Every frame carries its stream ID again as its payload, so
			// bytes of two frames interleaved would show.
			if typ != wire.TypePing || len(payload) != 4 || binary.BigEndian.Uint32(payload) != stream {
				t.Fatalf("frame %d of the batch is mangled: type %v stream %d payload %x", n, typ, stream, payload)
			}
			streams = append(streams, stream)
		}
		if n != frames || n == 0 {
			t.Fatalf("take reported %d frames and handed out %d", frames, n)
		}
	}
}

// TestFrameBatchConcurrentAdds: frames added from many goroutines each
// come out exactly once, whole, and in the order their goroutine added
// them, whatever the batching did in between.
func TestFrameBatchConcurrentAdds(t *testing.T) {
	const adders, each = 16, 500
	b := newFrameBatch()
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				stream := uint32(g<<16 | i)
				if !b.add(wire.TypePing, stream, binary.BigEndian.AppendUint32(nil, stream)) {
					t.Errorf("add refused on an open batch")
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		b.close(false)
	}()
	streams := drainBatch(t, b)
	if len(streams) != adders*each {
		t.Fatalf("%d frames came out, %d went in", len(streams), adders*each)
	}
	var next [adders]int
	for _, s := range streams {
		g, i := int(s>>16), int(s&0xffff)
		if i != next[g] {
			t.Fatalf("adder %d: frame %d came out where %d was due", g, i, next[g])
		}
		next[g]++
	}
}

// TestFrameBatchClose: a plain close hands the queued tail to the writer
// and then ends; a close with drop discards it; both make add refuse.
func TestFrameBatchClose(t *testing.T) {
	for _, drop := range []bool{false, true} {
		b := newFrameBatch()
		for s := uint32(0); s < 3; s++ {
			b.add(wire.TypePing, s, binary.BigEndian.AppendUint32(nil, s))
		}
		b.close(drop)
		if b.add(wire.TypePing, 9, nil) {
			t.Fatalf("drop=%v: add accepted a frame after close", drop)
		}
		want := 3
		if drop {
			want = 0
		}
		if got := drainBatch(t, b); len(got) != want {
			t.Fatalf("drop=%v: %d frames came out after close, want %d", drop, len(got), want)
		}
		if _, _, ok := b.take(nil); ok {
			t.Fatalf("drop=%v: take went on after the batch ended", drop)
		}
	}
}

// TestFrameBatchDropsOversizedBuffer: the double buffer recycles what the
// writer hands back, except a buffer that one burst of large frames grew
// past the retention cap.
func TestFrameBatchDropsOversizedBuffer(t *testing.T) {
	b := newFrameBatch()
	b.add(wire.TypePing, 1, make([]byte, arenaMaxRetainBytes+1))
	big, _, _ := b.take(nil)
	if cap(big) <= arenaMaxRetainBytes {
		t.Fatalf("the large frame fit %d bytes", cap(big))
	}
	b.add(wire.TypePing, 2, nil)
	small, _, _ := b.take(big)
	if cap(b.pending) > arenaMaxRetainBytes || cap(b.spare) > arenaMaxRetainBytes {
		t.Fatalf("batch kept the %d-byte buffer: pending cap %d, spare cap %d", cap(big), cap(b.pending), cap(b.spare))
	}
	b.add(wire.TypePing, 3, nil)
	b.take(small)
	if cap(b.pending) == 0 || &b.pending[:1][0] != &small[:1][0] {
		t.Fatal("batch did not recycle the ordinary buffer")
	}
}
