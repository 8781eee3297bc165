package wire

import (
	"testing"
)

func TestSubscribeRoundTrip(t *testing.T) {
	in := &Subscribe{ID: "follower-1", Epoch: 7, Rev: 3}
	out, err := DecodeSubscribe(in.Encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *out != *in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestReplicationDecodersRejectTruncation(t *testing.T) {
	sub := (&Subscribe{ID: "f", Epoch: 1, Rev: 2}).Encode(nil)
	for cut := 1; cut <= len(sub); cut++ {
		if _, err := DecodeSubscribe(sub[:len(sub)-cut]); err == nil {
			t.Fatalf("subscribe: truncating %d bytes decoded without error", cut)
		}
	}
}

func FuzzDecodeSubscribe(f *testing.F) {
	f.Add((&Subscribe{ID: "follower-1", Epoch: 7, Rev: 3}).Encode(nil))
	f.Add([]byte{0, 1, 'a'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeSubscribe(data)
		if err != nil {
			return
		}
		out, err := DecodeSubscribe(m.Encode(nil))
		if err != nil || *out != *m {
			t.Fatalf("Subscribe round-trip mismatch: %+v %v", out, err)
		}
	})
}
