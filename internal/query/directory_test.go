package query

import (
	"fmt"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
)

func vec(vals ...float64) core.Vectors {
	return core.Vectors{Out: vals, In: vals}
}

func TestPutGetRemove(t *testing.T) {
	d := New(Config{})
	if _, ok := d.Get("a"); ok {
		t.Fatal("empty directory must not resolve")
	}
	d.Put("a", vec(1, 2))
	v, ok := d.Get("a")
	if !ok || v.Out[0] != 1 || v.Out[1] != 2 {
		t.Fatalf("Get = %+v %v", v, ok)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Re-register overwrites, not duplicates.
	d.Put("a", vec(3, 4))
	if v, _ := d.Get("a"); v.Out[0] != 3 {
		t.Fatalf("overwrite lost: %+v", v)
	}
	if d.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", d.Len())
	}
	d.Remove("a")
	if _, ok := d.Get("a"); ok || d.Len() != 0 {
		t.Fatal("Remove did not take")
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := len(New(Config{Shards: tc.in}).shards); got != tc.want {
			t.Errorf("Shards=%d -> %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTTLExpiryAndSweep(t *testing.T) {
	now := time.Unix(1e6, 0)
	d := New(Config{Shards: 4, TTL: time.Minute, Now: func() time.Time { return now }})
	for i := 0; i < 100; i++ {
		d.Put(fmt.Sprintf("h%d", i), vec(float64(i), 1))
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Within TTL everything resolves.
	if _, ok := d.Get("h42"); !ok {
		t.Fatal("fresh entry must resolve")
	}
	// Past TTL: reads see nothing, and Len (whose shard sweeps are now
	// due) reclaims and reports zero.
	now = now.Add(2 * time.Minute)
	if _, ok := d.Get("h42"); ok {
		t.Fatal("expired entry must not resolve")
	}
	if d.Len() != 0 {
		t.Fatalf("Len after expiry = %d", d.Len())
	}
	// The sweep physically removed entries.
	total := 0
	for i := range d.shards {
		total += d.shards[i].live
	}
	if total != 0 {
		t.Fatalf("%d stale entries survived the sweep", total)
	}
	// Re-registering resurrects.
	d.Put("h42", vec(1, 1))
	if _, ok := d.Get("h42"); !ok || d.Len() != 1 {
		t.Fatal("re-register after expiry failed")
	}
}

func TestGetReclaimsExpiredEntry(t *testing.T) {
	// A read-only workload must still free vectors of departed hosts it
	// touches: the Get that observes expiry deletes the entry in place.
	now := time.Unix(1e6, 0)
	d := New(Config{Shards: 1, TTL: time.Minute, SweepInterval: time.Hour, Now: func() time.Time { return now }})
	d.Put("gone", vec(1))
	now = now.Add(2 * time.Minute)
	if _, ok := d.Get("gone"); ok {
		t.Fatal("expired entry must not resolve")
	}
	if got := d.shards[0].live; got != 0 {
		t.Fatalf("Get must reclaim the expired entry it hit; %d entries remain", got)
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	now := time.Unix(1e6, 0)
	d := New(Config{Now: func() time.Time { return now }})
	d.Put("a", vec(1))
	now = now.Add(1000 * time.Hour)
	if _, ok := d.Get("a"); !ok || d.Len() != 1 {
		t.Fatal("TTL=0 must never expire entries")
	}
}

func TestSweepAmortized(t *testing.T) {
	// With a long SweepInterval, writes between sweeps must not scan: we
	// can't observe scans directly, but we can observe that expired
	// entries linger in the map (invisible to Get) until the interval
	// elapses — the amortization contract.
	now := time.Unix(1e6, 0)
	d := New(Config{Shards: 1, TTL: time.Minute, SweepInterval: time.Hour, Now: func() time.Time { return now }})
	d.Put("old", vec(1))
	// First Put swept (lastSweep=0 is always due); advance past TTL but
	// within the sweep interval. The expired entry is untouched by reads
	// (Get would reclaim it), so it lingers until the next due sweep.
	now = now.Add(2 * time.Minute)
	d.Put("new", vec(2))
	if got := d.shards[0].live; got != 2 {
		t.Fatalf("expected the expired entry to linger until the sweep, map has %d entries", got)
	}
	// Once the interval elapses, the next write reclaims it.
	now = now.Add(2 * time.Hour)
	d.Put("new", vec(2))
	if got := d.shards[0].live; got != 1 {
		t.Fatalf("sweep did not reclaim: map has %d entries", got)
	}
}

func TestRangeVisitsLiveEntries(t *testing.T) {
	now := time.Unix(1e6, 0)
	d := New(Config{Shards: 4, TTL: time.Minute, Now: func() time.Time { return now }})
	d.Put("dead", vec(1))
	now = now.Add(2 * time.Minute)
	d.Put("live1", vec(1))
	d.Put("live2", vec(2))
	seen := map[string]bool{}
	d.RangeEpoch(func(addr string, _ core.Vectors, _ uint64) bool {
		seen[addr] = true
		return true
	})
	if len(seen) != 2 || !seen["live1"] || !seen["live2"] {
		t.Fatalf("Range saw %v", seen)
	}
	// Early termination.
	calls := 0
	d.RangeEpoch(func(string, core.Vectors, uint64) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Range after false: %d calls", calls)
	}
}

// ---- epoch tagging ----

func TestEpochEviction(t *testing.T) {
	d := New(Config{})
	d.PutEpoch("v1", vec(1, 1), 1)
	d.PutEpoch("v2", vec(2, 2), 2)
	d.Put("early", vec(3, 3)) // epoch 0: before the first fit
	d.AdvanceEpoch(2)
	if d.Epoch() != 2 {
		t.Fatalf("Epoch = %d", d.Epoch())
	}
	if _, ok := d.Get("v1"); ok {
		t.Fatal("epoch-1 entry must not resolve at epoch 2")
	}
	if _, ok := d.Get("v2"); !ok {
		t.Fatal("current-epoch entry must resolve")
	}
	if _, ok := d.Get("early"); ok {
		t.Fatal("an epoch-0 entry must not survive the first fit")
	}
	// The unlucky Gets reclaimed v1 and early; Len sweeps the rest.
	if n := d.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Range and shard snapshots skip stale entries too.
	d.PutEpoch("v1b", vec(4, 4), 1)
	seen := map[string]bool{}
	d.RangeEpoch(func(addr string, _ core.Vectors, _ uint64) bool {
		seen[addr] = true
		return true
	})
	if seen["v1b"] || !seen["v2"] || len(seen) != 1 {
		t.Fatalf("Range saw %v", seen)
	}
}

func TestEpochSweepReclaimsWithoutGets(t *testing.T) {
	d := New(Config{Shards: 1})
	for i := 0; i < 64; i++ {
		d.PutEpoch(fmt.Sprintf("h%d", i), vec(float64(i)), 1)
	}
	d.AdvanceEpoch(2)
	// One Put after the bump triggers the shard's epoch sweep.
	d.PutEpoch("fresh", vec(9), 2)
	if n := d.Len(); n != 1 {
		t.Fatalf("Len = %d after epoch sweep, want 1", n)
	}
}

func TestAdvanceEpochMonotonic(t *testing.T) {
	d := New(Config{})
	d.AdvanceEpoch(5)
	d.AdvanceEpoch(3) // regression ignored
	if d.Epoch() != 5 {
		t.Fatalf("Epoch = %d, want 5", d.Epoch())
	}
	d.PutEpoch("a", vec(1), 5)
	d.AdvanceEpoch(6)
	if _, ok := d.Get("a"); ok {
		t.Fatal("entry from epoch 5 must die at epoch 6")
	}
}

func TestEpochAndTTLCompose(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	d := New(Config{TTL: time.Minute, Now: func() time.Time { return now }})
	d.PutEpoch("a", vec(1), 1)
	d.AdvanceEpoch(1)
	if _, ok := d.Get("a"); !ok {
		t.Fatal("current-epoch entry must resolve")
	}
	// TTL still applies to versioned entries.
	now = now.Add(2 * time.Minute)
	if _, ok := d.Get("a"); ok {
		t.Fatal("TTL must expire versioned entries too")
	}
}
