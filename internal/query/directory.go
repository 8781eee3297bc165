// Package query is the IDES query engine: a sharded, concurrency-friendly
// directory of registered host vectors, and bulk estimation primitives
// (one-to-many, all-pairs, k-nearest) built on top of it.
//
// The paper's central property — any pairwise distance is a dot product of
// two short vectors (Eq. 4) — pays off exactly when many estimates are
// answered at once: server selection, closest-mirror lookup, overlay
// neighbor choice. This package turns the server's directory from a pair
// oracle into a vectorized query engine. The Directory scales registration
// and lookup across cores by sharding the address space over independently
// RW-locked shards, and amortizes TTL expiry into per-shard sweeps instead
// of scanning every entry under a global lock on every request.
package query

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/wire"
)

// Config parameterizes a Directory.
type Config struct {
	// Shards is the number of independent shards. It is rounded up to
	// a power of two; default 16. More shards reduce lock contention for
	// write-heavy registration workloads.
	Shards int
	// TTL expires entries that have not been re-registered within the
	// window. Zero keeps entries forever.
	TTL time.Duration
	// SweepInterval bounds how often one shard pays for a full expiry
	// scan. Default TTL/4 (and irrelevant when TTL is zero). Between
	// sweeps, expired entries are invisible to reads but still occupy
	// memory and may be counted by Len.
	SweepInterval time.Duration
	// Now is the clock, injectable for tests. Default time.Now.
	Now func() time.Time
	// Metrics, if set, receives query-layer observations (batch sizes,
	// estimation and KNN latency). It lives on the Directory — which
	// survives engine swaps — so counters accumulate across model
	// generations.
	Metrics *Metrics
	// KNNIndexMinSize is the directory size below which KNearest skips
	// the spatial index and scans exactly — tiny directories are faster
	// to scan than to search, and the scan is exhaustively deterministic
	// for tests. Zero means the default (4096); negative disables the
	// index outright.
	KNNIndexMinSize int
}

// A shard keeps its hosts as records in one append-only slab of float64
// words, and hands out rows as slices of it (README.md). A record, at its
// slot (offset), is hash | epoch | registration time | meta | address… |
// In… | Out…: the header holds integer bits, meta packs a dead bit and
// the lengths of addr (17 bits), Out and In (23 each: more than a frame
// carries), and the address sits eight bytes to a word, zero-padded.
const (
	wHash = iota
	wEpoch
	wAt
	wMeta
	wAddr // first address word

	deadBit = 1 << 63
)

// cell is one slot of a shard's open-addressing table: the high half of
// a live record's address hash, and its slot plus one (0 = empty).
type cell struct {
	tag, ref uint32
}

// record is the record at slot s of a slab, and its meta word.
type record struct {
	s    int
	meta uint64
}

func w2u(w float64) uint64 { return math.Float64bits(w) }
func u2w(u uint64) float64 { return math.Float64frombits(u) }

func rec(slab []float64, s int) record { return record{s, w2u(slab[s+wMeta])} }

func (r record) hash(slab []float64) uint64  { return w2u(slab[r.s+wHash]) }
func (r record) epoch(slab []float64) uint64 { return w2u(slab[r.s+wEpoch]) }
func (r record) dead() bool                  { return r.meta&deadBit != 0 }
func (r record) alen() int                   { return int(r.meta >> 46 & (1<<17 - 1)) }
func (r record) nOut() int                   { return int(r.meta >> 23 & (1<<23 - 1)) }
func (r record) nIn() int                    { return int(r.meta & (1<<23 - 1)) }
func (r record) in() int                     { return r.s + wAddr + (r.alen()+7)/8 }
func (r record) end() int                    { return r.in() + r.nIn() + r.nOut() }

// inRow and vectors return rows capped so an append cannot reach the slab.
func (r record) inRow(slab []float64) []float64 {
	in, out := r.in(), r.in()+r.nIn()
	return slab[in:out:out]
}

func (r record) vectors(slab []float64) core.Vectors {
	out, end := r.in()+r.nIn(), r.end()
	return core.Vectors{Out: slab[out:end:end], In: r.inRow(slab)}
}

// word packs addr's bytes from i on, at most eight, as a record does.
func word[K addrKey](addr K, i int) uint64 {
	if len(addr)-i >= 8 {
		b := addr[i : i+8]
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	var w uint64
	for j := len(addr) - 1; j >= i; j-- {
		w = w<<8 | uint64(addr[j])
	}
	return w
}

// hasAddr reports whether the record at slot s of slab holds addr.
func hasAddr[K addrKey](slab []float64, s int, addr K) bool {
	if rec(slab, s).alen() != len(addr) {
		return false
	}
	for i, w := range slab[s+wAddr : s+wAddr+(len(addr)+7)/8] {
		if word(addr, 8*i) != w2u(w) {
			return false
		}
	}
	return true
}

// addrOf copies the record's address out of the slab.
func (r record) addrOf(slab []float64) string {
	var b strings.Builder
	b.Grow(r.alen())
	for i := 0; i < r.alen(); i++ {
		b.WriteByte(byte(w2u(slab[r.s+wAddr+i/8]) >> (8 * (i % 8))))
	}
	return b.String()
}

// shard is an independently locked slice of the directory.
type shard struct {
	mu         sync.RWMutex
	table      []cell        // live records by address hash; at most half full
	slab       []float64     // the records, appended in registration order
	live, dead int           // records in the table; dead records still in the slab
	count      atomic.Int64  // live, maintained under mu
	lastSweep  atomic.Int64  // unix nanos of the last expiry scan
	sweptEpoch atomic.Uint64 // directory epoch as of the last scan
}

// match returns the table position of the first cell carrying tag in
// its probe run from p on, or -1; a run starts at the tag's low bits.
func (sh *shard) match(tag uint32, p int) int {
	for m := len(sh.table) - 1; m >= 0; p++ {
		if c := sh.table[p&m]; c.ref == 0 {
			return -1
		} else if c.tag == tag {
			return p & m
		}
	}
	return -1
}

// find returns the table position of addr's live record, or -1.
func find[K addrKey](sh *shard, h uint64, addr K) int {
	tag := uint32(h >> 32)
	p := sh.match(tag, int(tag))
	for p >= 0 && !hasAddr(sh.slab, sh.slotAt(p), addr) {
		p = sh.match(tag, p+1)
	}
	return p
}

func (sh *shard) slotAt(p int) int { return int(sh.table[p].ref - 1) }

// link enters a record into the table, kept at most half full.
func (sh *shard) link(h uint64, slot int) {
	if 2*(sh.live+1) > len(sh.table) {
		old := sh.table
		sh.table = make([]cell, max(8, 2*len(old)))
		for _, c := range old {
			if c.ref != 0 {
				sh.place(c)
			}
		}
	}
	sh.place(cell{uint32(h >> 32), uint32(slot + 1)})
	sh.live++
}

func (sh *shard) place(c cell) {
	p, m := int(c.tag), len(sh.table)-1
	for sh.table[p&m].ref != 0 {
		p++
	}
	sh.table[p&m] = c
}

// kill marks the record in table position p dead and drops its cell;
// a later cell of the run moves back unless its home is within (p, q].
func (sh *shard) kill(p int) {
	s := sh.slotAt(p)
	sh.slab[s+wMeta] = u2w(w2u(sh.slab[s+wMeta]) | deadBit)
	sh.live--
	sh.dead++
	m := len(sh.table) - 1
	for q := (p + 1) & m; sh.table[q].ref != 0; q = (q + 1) & m {
		if (q-int(sh.table[q].tag))&m >= (q-p)&m {
			sh.table[p], p = sh.table[q], q
		}
	}
	sh.table[p] = cell{}
}

// compact copies sh's live records into a fresh slab, in slab order,
// and rebuilds the table over them. Callers hold sh.mu.
func (d *Directory) compact(sh *shard) {
	d.compactions.Add(1)
	old := sh.slab
	// The old slab's length as capacity: a re-registered generation
	// refills it without growing.
	sh.slab, sh.table, sh.live = make([]float64, 0, len(old)), make([]cell, 1<<bits.Len(uint(2*sh.live))), 0
	for s := 0; s < len(old); s = rec(old, s).end() {
		if r := rec(old, s); !r.dead() {
			sh.link(r.hash(old), len(sh.slab))
			sh.slab = append(sh.slab, old[s:r.end()]...)
		}
	}
	sh.dead = 0
}

// Directory is a sharded host-vector directory. All methods are safe for
// concurrent use.
//
// Entries carry the model epoch their vectors were solved against
// (PutEpoch). When the directory's epoch advances past an entry's, the
// entry stops resolving immediately — a vector solved against a dead
// model generation must never be dotted with vectors from the live one —
// and its memory is reclaimed lazily: by the Get that touches it, and by
// the one per-shard sweep each epoch bump schedules. An epoch-0 entry was
// registered before the first fit, and the first AdvanceEpoch evicts it.
type Directory struct {
	shards  []shard
	mask    uint64
	seed    maphash.Seed
	ttl     time.Duration
	sweep   time.Duration
	now     func() time.Time
	metrics *Metrics
	epoch   atomic.Uint64 // current model epoch; older entries are dead

	// k-NN index state. The index lives on the Directory rather than the
	// Engine because engines are recreated on every snapshot swap
	// (including incremental revisions that keep the epoch) while the
	// entries — and so the index over them — survive within an epoch.
	idxMin      int                      // KNNIndexMinSize, resolved
	knn         atomic.Pointer[knnState] // current epoch's index, if built
	knnBuilding atomic.Bool              // single-flight guard for builds
	mutations   atomic.Uint64            // Put/Remove count, for index staleness
	compactions atomic.Uint64            // slabs rewritten: every slot an index holds moved
}

// New builds a Directory from cfg.
func New(cfg Config) *Directory {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	sweep := cfg.SweepInterval
	if sweep <= 0 {
		sweep = cfg.TTL / 4
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	idxMin := cfg.KNNIndexMinSize
	if idxMin == 0 {
		idxMin = defaultKNNIndexMinSize
	}
	return &Directory{
		shards:  make([]shard, pow),
		mask:    uint64(pow - 1),
		seed:    maphash.MakeSeed(),
		ttl:     cfg.TTL,
		sweep:   sweep,
		now:     now,
		metrics: cfg.Metrics,
		idxMin:  idxMin,
	}
}

// addrKey is an address in either form a caller holds it: a string, or
// the bytes of one still sitting in a request frame. Both hash alike
// (maphash.Bytes equals maphash.String over equal bytes), so one body
// serves both.
type addrKey interface{ string | []byte }

// hashOf hashes addr once for everything a lookup needs: the low bits
// pick the shard, and the high half is the tag a table cell is matched
// on and probed from.
func hashOf[K addrKey](d *Directory, addr K) uint64 {
	switch a := any(addr).(type) {
	case string:
		return maphash.String(d.seed, a)
	case []byte:
		return maphash.Bytes(d.seed, a)
	}
	panic("unreachable")
}

// ttlNow reads the clock for a TTL comparison, or returns 0 without
// touching it when entries never expire.
func (d *Directory) ttlNow() int64 {
	if d.ttl > 0 {
		return d.now().UnixNano()
	}
	return 0
}

// Put inserts or refreshes a host's vectors at epoch 0, before the first
// fit: the first AdvanceEpoch evicts them. The vectors are copied.
func (d *Directory) Put(addr string, vec core.Vectors) { d.PutEpoch(addr, vec, 0) }

// PutEpoch inserts or refreshes a host's vectors, tagged with the model
// epoch they were solved against; the entry stops resolving once
// AdvanceEpoch moves past that epoch. The vectors are copied into a
// fresh record, so the caller may reuse its buffers.
func (d *Directory) PutEpoch(addr string, vec core.Vectors, epoch uint64) {
	putEpoch(d, addr, vec.Out, vec.In, epoch)
}

// PutEpochView is PutEpoch from a RegisterHost frame still in its
// buffer: the leader's registration path. The address bytes and both
// rows are copied from the view into the record, so nothing is
// allocated for them.
func (d *Directory) PutEpochView(addr []byte, out, in wire.Floats, epoch uint64) {
	putEpoch(d, addr, out, in, epoch)
}

// row is a vector in either form a writer holds it: decoded, or the
// wire bytes of one still in a request frame.
type row interface{ []float64 | wire.Floats }

func rowLen[R row](v R) int {
	switch v := any(v).(type) {
	case []float64:
		return len(v)
	case wire.Floats:
		return v.Len()
	}
	panic("unreachable")
}

func appendRow[R row](slab []float64, v R) []float64 {
	switch v := any(v).(type) {
	case []float64:
		return append(slab, v...)
	case wire.Floats:
		n := len(slab)
		slab = slices.Grow(slab, v.Len())[:n+v.Len()]
		v.CopyTo(slab[n:])
		return slab
	}
	panic("unreachable")
}

// putEpoch is the one write behind PutEpoch and PutEpochView.
func putEpoch[K addrKey, R row](d *Directory, addr K, out, in R, epoch uint64) {
	nOut, nIn := rowLen(out), rowLen(in)
	if len(addr) >= 1<<17 || nOut >= 1<<23 || nIn >= 1<<23 {
		panic("query: address or vector longer than a wire frame carries")
	}
	h := hashOf(d, addr)
	sh := &d.shards[h&d.mask]
	now := d.now().UnixNano()
	sh.mu.Lock()
	d.maybeSweepLocked(sh, now)
	p := find(sh, h, addr)
	s := len(sh.slab)
	sh.slab = append(sh.slab, u2w(h), u2w(epoch), u2w(uint64(now)),
		u2w(uint64(len(addr))<<46|uint64(nOut)<<23|uint64(nIn)))
	for i := 0; i < len(addr); i += 8 {
		sh.slab = append(sh.slab, u2w(word(addr, i)))
	}
	sh.slab = appendRow(appendRow(sh.slab, in), out)
	if p >= 0 {
		sh.kill(p)
	}
	sh.link(h, s)
	d.settle(sh)
	d.mutations.Add(1) // under the lock: a reader that saw the record sees the count
	sh.mu.Unlock()
}

// settle ends every write to sh, compacting once the dead outnumber the live.
func (d *Directory) settle(sh *shard) {
	if sh.dead > sh.live {
		d.compact(sh)
	}
	sh.count.Store(int64(sh.live))
}

// AdvanceEpoch moves the directory to a new model epoch: every entry
// tagged with an older epoch immediately reads as absent.
// Regressions are ignored, so out-of-order announcements cannot
// resurrect dead entries.
func (d *Directory) AdvanceEpoch(epoch uint64) {
	for {
		cur := d.epoch.Load()
		if epoch <= cur || d.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Epoch returns the directory's current model epoch.
func (d *Directory) Epoch() uint64 { return d.epoch.Load() }

// Get returns the vectors registered for addr, as seen from the
// directory's current epoch. See GetAt.
func (d *Directory) Get(addr string) (core.Vectors, bool) {
	return d.GetAt(addr, d.epoch.Load())
}

// GetAt returns the vectors registered for addr as seen from one model
// epoch: entries tagged with a different epoch read as absent,
// so a caller pinned to one generation (the query engine) never
// resolves vectors solved against another — even while registrations
// for a newer epoch race in. Expired and stale-epoch entries also read
// as absent, and the one an unlucky GetAt touches is reclaimed on the
// spot (an O(1) write-locked delete) so queried-but-departed hosts free
// their memory even on shards that no longer see writes; the rest are
// reclaimed by the next sweep of their shard. The vectors alias
// directory memory that is never written again.
func (d *Directory) GetAt(addr string, epoch uint64) (core.Vectors, bool) {
	return getAt(d, addr, epoch)
}

// GetAtBytes is GetAt keyed by raw address bytes: the server's
// zero-allocation point-query path.
func (d *Directory) GetAtBytes(addr []byte, epoch uint64) (core.Vectors, bool) {
	return getAt(d, addr, epoch)
}

// getAt is the single-address lookup behind GetAt and GetAtBytes.
func getAt[K addrKey](d *Directory, addr K, epoch uint64) (core.Vectors, bool) {
	h := hashOf(d, addr)
	sh := &d.shards[h&d.mask]
	now, cur := d.ttlNow(), d.epoch.Load()
	sh.mu.RLock()
	p := find(sh, h, addr)
	if p < 0 {
		sh.mu.RUnlock()
		return core.Vectors{}, false
	}
	slab, r := sh.slab, rec(sh.slab, sh.slotAt(p))
	sh.mu.RUnlock()
	if d.dead(slab, r, now, cur) {
		sh.mu.Lock()
		// Re-check: a concurrent Put may have refreshed the entry.
		if p = find(sh, h, addr); p >= 0 && d.dead(sh.slab, rec(sh.slab, sh.slotAt(p)), now, cur) {
			sh.kill(p)
			d.settle(sh)
		}
		sh.mu.Unlock()
		return core.Vectors{}, false
	}
	if r.epoch(slab) != epoch {
		return core.Vectors{}, false
	}
	return r.vectors(slab), true
}

// gatherIn is the grouped lookup behind EstimateBatch. It resolves every
// addrs[i] as seen from one model epoch (GetAt's rules) and leaves the
// host's incoming vector in rows[i] — nil when the host is absent, or
// registered with a dimension other than dim. Indices the directory
// resolved nothing for are returned (aliasing sc) so the caller can try
// its fallback; a wrong-dimension entry is a hit, not a miss. sc lends
// the working arrays.
//
// Every address is hashed once, the indices are bucketed by shard with a
// counting sort, and each shard touched is read-locked once — not once
// per address. Within a shard, every target's table cell, then the first
// 128 bytes of its record (header, an address ≤ 16 bytes and a d ≤ 8 In
// row, at any alignment), are loaded before any address is checked, so
// the cache misses of a bucket overlap instead of queueing. Dead
// (expired, stale-epoch) entries read as absent and are NOT reclaimed
// here — that would be a write lock under a read lock — but left to the
// shard's sweep. The rows alias slab words that are never written again.
func gatherIn[K addrKey](d *Directory, addrs []K, epoch uint64, dim int, rows [][]float64, sc *BatchScratch) []int32 {
	n, numShards := len(addrs), len(d.shards)
	if need := 2*n + numShards; cap(sc.ints) < need {
		sc.ints = make([]int32, need)
	}
	if cap(sc.hash) < n {
		sc.hash = make([]uint64, n)
	}
	at, order, pos, hash := sc.ints[:n], sc.ints[n:2*n], sc.ints[2*n:2*n+numShards], sc.hash[:n]
	clear(pos)
	// Counting sort by shard. Placing an index advances its shard's pos,
	// so pos[s] ends up one past shard s's bucket in order and walking the
	// shards in turn walks the buckets in turn.
	for i, addr := range addrs {
		hash[i] = hashOf(d, addr)
		pos[hash[i]&d.mask]++
	}
	sum := int32(0)
	for s, c := range pos {
		pos[s] = sum
		sum += c
	}
	for i, h := range hash {
		order[pos[h&d.mask]] = int32(i)
		pos[h&d.mask]++
	}
	now, cur := d.ttlNow(), d.epoch.Load()
	miss := sc.miss[:0]
	start := int32(0)
	for s, end := range pos {
		if end == start {
			continue
		}
		sh := &d.shards[s]
		bucket := order[start:end]
		sh.mu.RLock()
		for _, i := range bucket {
			tag := uint32(hash[i] >> 32)
			at[i] = int32(sh.match(tag, int(tag)))
		}
		for _, i := range bucket { // each record's first 128 bytes, as loads only
			if at[i] >= 0 {
				s, last := sh.slotAt(int(at[i])), len(sh.slab)-1
				hash[i] = w2u(sh.slab[s]) ^ w2u(sh.slab[min(s+8, last)]) ^ w2u(sh.slab[min(s+15, last)])
			}
		}
		for _, i := range bucket {
			p, r := int(at[i]), record{}
			if p >= 0 && !hasAddr(sh.slab, sh.slotAt(p), addrs[i]) {
				p = find(sh, hashOf(d, addrs[i]), addrs[i]) // another address, same tag
			}
			if p >= 0 {
				r = rec(sh.slab, sh.slotAt(p))
			}
			switch {
			case p < 0 || d.dead(sh.slab, r, now, cur) || r.epoch(sh.slab) != epoch:
				rows[i] = nil
				miss = append(miss, i)
			case r.nIn() != dim:
				rows[i] = nil
			default:
				rows[i] = r.inRow(sh.slab)
			}
		}
		sh.mu.RUnlock()
		start = end
	}
	sc.miss = miss
	return miss
}

// Remove deletes addr from the directory.
func (d *Directory) Remove(addr string) {
	h := hashOf(d, addr)
	sh := &d.shards[h&d.mask]
	sh.mu.Lock()
	if p := find(sh, h, addr); p >= 0 {
		sh.kill(p)
		d.settle(sh)
	}
	d.mutations.Add(1)
	sh.mu.Unlock()
}

// Len returns the number of live entries. It reads per-shard counters —
// no scan — after giving each shard whose sweep is due (by TTL interval
// or epoch bump) the chance to reclaim dead entries, so the count
// converges to exact within one SweepInterval of any expiry and one call
// of any epoch advance.
func (d *Directory) Len() int {
	now := d.ttlNow()
	cur := d.epoch.Load()
	total := 0
	for i := range d.shards {
		sh := &d.shards[i]
		ttlDue := d.ttl > 0 && now-sh.lastSweep.Load() >= int64(d.sweep)
		if ttlDue || sh.sweptEpoch.Load() != cur {
			sh.mu.Lock()
			d.maybeSweepLocked(sh, now)
			sh.mu.Unlock()
		}
		total += int(sh.count.Load())
	}
	return total
}

// approxSize sums the per-shard counters with no locking and no sweeps:
// a cheap upper bound (expired-but-unswept entries count) for sizing
// decisions on paths that must not block writers.
func (d *Directory) approxSize() int {
	total := 0
	for i := range d.shards {
		total += int(d.shards[i].count.Load())
	}
	return total
}

// dead reports whether a record is past TTL at unix-nanos now (0 = no
// TTL) or was solved against a model epoch older than cur.
func (d *Directory) dead(slab []float64, r record, now int64, cur uint64) bool {
	return (d.ttl > 0 && now-int64(w2u(slab[r.s+wAt])) > int64(d.ttl)) || r.epoch(slab) < cur
}

// maybeSweepLocked kills the shard's expired and stale records if a
// sweep is due — the TTL interval elapsed, or the directory epoch moved
// since this shard's last scan. Callers hold sh.mu. The cost is O(shard
// size), paid by at most one writer per shard per SweepInterval plus one
// per epoch bump — every other operation is O(1).
func (d *Directory) maybeSweepLocked(sh *shard, now int64) {
	cur := d.epoch.Load()
	ttlDue := d.ttl > 0 && now-sh.lastSweep.Load() >= int64(d.sweep)
	if !ttlDue && sh.sweptEpoch.Load() == cur {
		return
	}
	sh.lastSweep.Store(now)
	sh.sweptEpoch.Store(cur)
	for s := 0; s < len(sh.slab); s = rec(sh.slab, s).end() {
		if r := rec(sh.slab, s); !r.dead() && d.dead(sh.slab, r, now, cur) {
			tag := uint32(r.hash(sh.slab) >> 32)
			p := sh.match(tag, int(tag))
			for sh.slotAt(p) != s {
				p = sh.match(tag, p+1)
			}
			sh.kill(p)
		}
	}
	d.settle(sh)
}

// RangeEpoch calls fn for every live entry, with its registered model
// epoch, until fn returns false — what a replicating leader needs to
// stream its directory to a follower without flattening the epoch tags.
// The callback runs outside the shard lock (entries are copied out one
// shard at a time), so fn may call back into the Directory.
func (d *Directory) RangeEpoch(fn func(addr string, vec core.Vectors, epoch uint64) bool) {
	now := d.ttlNow()
	type addrVec struct {
		addr  string
		vec   core.Vectors
		epoch uint64
	}
	var buf []addrVec
	for i := range d.shards {
		buf = buf[:0]
		d.visit(i, nil, now, anyEpoch, func(slab []float64, r record) {
			buf = append(buf, addrVec{r.addrOf(slab), r.vectors(slab), r.epoch(slab)})
		})
		for _, av := range buf {
			if !fn(av.addr, av.vec, av.epoch) {
				return
			}
		}
	}
}

// anyEpoch makes visit pass live records of every generation.
const anyEpoch = ^uint64(0)

// visit calls fn, under shard i's read lock, for each live record — as
// seen from the given model epoch, or of every epoch for anyEpoch — and
// returns the slab length it read to. Every scan goes through it; the
// engine's parallel scans pass one epoch for the whole scan, so a scan
// that straddles an AdvanceEpoch cannot mix entries from two generations.
// Given an index st, it visits only the records appended since st's
// build, and returns -1 instead if a compaction has moved them.
func (d *Directory) visit(i int, st *knnState, now int64, epoch uint64, fn func(slab []float64, r record)) int {
	sh := &d.shards[i]
	cur := d.epoch.Load()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	from := 0
	if st != nil {
		if d.compactions.Load() != st.compactions {
			return -1
		}
		from = st.prefix[i]
	}
	for s := from; s < len(sh.slab); s = rec(sh.slab, s).end() {
		if r := rec(sh.slab, s); !r.dead() && !d.dead(sh.slab, r, now, cur) && (epoch == anyEpoch || r.epoch(sh.slab) == epoch) {
			fn(sh.slab, r)
		}
	}
	return len(sh.slab)
}
