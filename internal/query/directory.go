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
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/core"
)

// Config parameterizes a Directory.
type Config struct {
	// Shards is the number of independent map shards. It is rounded up to
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

// entry is one directory record. The registration time is kept as
// monotonic-friendly wall nanos so sweeps compare int64s, not time.Time.
type entry struct {
	vec   core.Vectors
	at    int64  // registration time, unix nanos
	epoch uint64 // model epoch the vectors were solved against; 0 = before the first fit
}

// shard is an independently locked slice of the directory.
type shard struct {
	mu         sync.RWMutex
	hosts      map[string]entry
	count      atomic.Int64  // len(hosts), maintained under mu
	lastSweep  atomic.Int64  // unix nanos of the last expiry scan
	sweptEpoch atomic.Uint64 // directory epoch as of the last scan
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
	d := &Directory{
		shards:  make([]shard, pow),
		mask:    uint64(pow - 1),
		seed:    maphash.MakeSeed(),
		ttl:     cfg.TTL,
		sweep:   sweep,
		now:     now,
		metrics: cfg.Metrics,
		idxMin:  idxMin,
	}
	for i := range d.shards {
		d.shards[i].hosts = make(map[string]entry)
	}
	return d
}

// addrKey is an address in either form a caller holds it: a string, or
// the bytes of one still sitting in a request frame. Both hash alike
// (maphash.Bytes equals maphash.String over equal bytes) and both index
// the shard maps without allocating (the compiler elides the string
// conversion in a map lookup), so one body serves both.
type addrKey interface{ string | []byte }

// shardOf returns the index of the shard addr belongs to.
func shardOf[K addrKey](d *Directory, addr K) uint32 {
	var h uint64
	switch a := any(addr).(type) {
	case string:
		h = maphash.String(d.seed, a)
	case []byte:
		h = maphash.Bytes(d.seed, a)
	}
	return uint32(h & d.mask)
}

func (d *Directory) shardFor(addr string) *shard {
	return &d.shards[shardOf(d, addr)]
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
// fit: the first AdvanceEpoch evicts them. The slices are stored as
// given; callers that reuse buffers must copy first.
func (d *Directory) Put(addr string, vec core.Vectors) { d.PutEpoch(addr, vec, 0) }

// PutEpoch inserts or refreshes a host's vectors, tagged with the model
// epoch they were solved against; the entry stops resolving once
// AdvanceEpoch moves past that epoch. The slices are stored as given;
// callers that reuse buffers must copy first.
func (d *Directory) PutEpoch(addr string, vec core.Vectors, epoch uint64) {
	sh := d.shardFor(addr)
	now := d.now().UnixNano()
	sh.mu.Lock()
	d.maybeSweepLocked(sh, now)
	sh.hosts[addr] = entry{vec: vec, at: now, epoch: epoch}
	sh.count.Store(int64(len(sh.hosts)))
	sh.mu.Unlock()
	d.mutations.Add(1)
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
// reclaimed by the next sweep of their shard.
func (d *Directory) GetAt(addr string, epoch uint64) (core.Vectors, bool) {
	return getAt(d, addr, epoch)
}

// GetAtBytes is GetAt keyed by raw address bytes, for the server's
// zero-allocation point-query path: a directory hit costs no heap
// allocation. The rare reclamation of a dead entry does convert (delete
// needs a real string key); that path was already write-locked and O(1).
func (d *Directory) GetAtBytes(addr []byte, epoch uint64) (core.Vectors, bool) {
	return getAt(d, addr, epoch)
}

// getAt is the single-address lookup behind GetAt and GetAtBytes.
func getAt[K addrKey](d *Directory, addr K, epoch uint64) (core.Vectors, bool) {
	sh := &d.shards[shardOf(d, addr)]
	now := d.ttlNow()
	cur := d.epoch.Load()
	sh.mu.RLock()
	e, ok := sh.hosts[string(addr)]
	sh.mu.RUnlock()
	if !ok {
		return core.Vectors{}, false
	}
	if d.expired(e, now) || d.stale(e, cur) {
		key := string(addr)
		sh.mu.Lock()
		// Re-check: a concurrent Put may have refreshed the entry.
		if e, ok = sh.hosts[key]; ok && (d.expired(e, now) || d.stale(e, cur)) {
			delete(sh.hosts, key)
			sh.count.Store(int64(len(sh.hosts)))
		}
		sh.mu.Unlock()
		return core.Vectors{}, false
	}
	if e.epoch != epoch {
		return core.Vectors{}, false
	}
	return e.vec, true
}

// gatherIn is the grouped lookup behind EstimateBatch. It resolves every
// addrs[i] as seen from one model epoch (GetAt's rules) and leaves the
// host's incoming vector in rows[i] — nil when the host is absent, or
// registered with a dimension other than dim. Indices the directory
// resolved nothing for are returned (aliasing sc) so the caller can try
// its fallback; a wrong-dimension entry is a hit, not a miss. sc lends
// the bucketing arrays.
//
// Every address is hashed once, the indices are bucketed by shard with a
// counting sort, and each shard touched is read-locked once — not once
// per address: on a 256-target batch the per-address lock pairs, not the
// map lookups, were the larger cost. Dead (expired, stale-epoch) entries
// read as absent and are NOT reclaimed here — that would be a write lock
// under a read lock — but left to the shard's sweep. The rows alias
// directory-owned vectors after the lock is dropped; that is safe
// because PutEpoch replaces entries and never writes through them.
func gatherIn[K addrKey](d *Directory, addrs []K, epoch uint64, dim int, rows [][]float64, sc *BatchScratch) []int32 {
	n, numShards := len(addrs), len(d.shards)
	if need := 2*n + numShards; cap(sc.ints) < need {
		sc.ints = make([]int32, need)
	}
	shard, order, pos := sc.ints[:n], sc.ints[n:2*n], sc.ints[2*n:2*n+numShards]
	clear(pos)
	// Counting sort by shard. Placing an index advances its shard's pos,
	// so pos[s] ends up one past shard s's bucket in order and walking the
	// shards in turn walks the buckets in turn.
	for i, addr := range addrs {
		s := shardOf(d, addr)
		shard[i] = int32(s)
		pos[s]++
	}
	sum := int32(0)
	for s, c := range pos {
		pos[s] = sum
		sum += c
	}
	for i, s := range shard {
		order[pos[s]] = int32(i)
		pos[s]++
	}
	now := d.ttlNow()
	cur := d.epoch.Load()
	miss := sc.miss[:0]
	start := int32(0)
	for s, end := range pos {
		if end == start {
			continue
		}
		sh := &d.shards[s]
		sh.mu.RLock()
		for _, i := range order[start:end] {
			e, ok := sh.hosts[string(addrs[i])]
			switch {
			case !ok || d.expired(e, now) || d.stale(e, cur) || e.epoch != epoch:
				rows[i] = nil
				miss = append(miss, i)
			case len(e.vec.In) != dim:
				rows[i] = nil
			default:
				rows[i] = e.vec.In
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
	sh := d.shardFor(addr)
	sh.mu.Lock()
	delete(sh.hosts, addr)
	sh.count.Store(int64(len(sh.hosts)))
	sh.mu.Unlock()
	d.mutations.Add(1)
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

// expired reports whether e is past TTL at unix-nanos now (0 = no TTL).
func (d *Directory) expired(e entry, now int64) bool {
	return d.ttl > 0 && now-e.at > int64(d.ttl)
}

// stale reports whether e was solved against a model epoch older than
// cur.
func (d *Directory) stale(e entry, cur uint64) bool {
	return e.epoch < cur
}

// maybeSweepLocked scans the shard for expired and stale entries if a
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
	for addr, e := range sh.hosts {
		if d.expired(e, now) || d.stale(e, cur) {
			delete(sh.hosts, addr)
		}
	}
	sh.count.Store(int64(len(sh.hosts)))
}

// RangeEpoch calls fn for every live entry, with its registered model
// epoch, until fn returns false — what a replicating leader needs to
// stream its directory to a follower without flattening the epoch tags.
// The callback runs outside the shard lock (entries are copied out one
// shard at a time), so fn may call back into the Directory.
func (d *Directory) RangeEpoch(fn func(addr string, vec core.Vectors, epoch uint64) bool) {
	now := d.ttlNow()
	buf := make([]addrVec, 0, 64)
	for i := range d.shards {
		buf = d.snapshotShard(i, now, anyEpoch, buf[:0])
		for _, av := range buf {
			if !fn(av.addr, av.vec, av.epoch) {
				return
			}
		}
	}
}

type addrVec struct {
	addr  string
	vec   core.Vectors
	epoch uint64
}

// anyEpoch makes snapshotShard keep live entries of every generation.
const anyEpoch = ^uint64(0)

// snapshotShard copies shard i's live entries — as seen from the given
// model epoch, or all of them for anyEpoch — into buf and returns it.
// Every scan goes through it; the engine's parallel scans pass one epoch
// for the whole scan, so a scan that straddles an AdvanceEpoch cannot mix
// entries from two generations.
func (d *Directory) snapshotShard(i int, now int64, epoch uint64, buf []addrVec) []addrVec {
	sh := &d.shards[i]
	cur := d.epoch.Load()
	sh.mu.RLock()
	for addr, e := range sh.hosts {
		if d.expired(e, now) || d.stale(e, cur) {
			continue
		}
		if epoch != anyEpoch && e.epoch != epoch {
			continue
		}
		buf = append(buf, addrVec{addr, e.vec, e.epoch})
	}
	sh.mu.RUnlock()
	return buf
}
