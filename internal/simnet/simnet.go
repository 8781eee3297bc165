// Package simnet provides a deterministic in-process network fabric
// whose connections and pings experience the one-way delays of a
// synthetic topology. The full IDES service (information server,
// landmark agents, ordinary hosts) runs over simnet in tests, the
// scenario harness and examples exactly as it runs over real TCP in the
// cmd/ binaries: simnet's Host implements the same transport.Dialer and
// transport.Pinger contracts.
//
// # Delivery model
//
// All delivery flows through one central event scheduler: data written
// to a connection is queued with a due time — the link's current
// one-way latency plus optional jitter and loss-retransmission delay,
// scaled by Config.TimeScale — and becomes readable at the peer when
// the scheduler delivers it. What the scheduler delivers is an arrival:
// a typed value naming the link, the receiving endpoint and the packet,
// or the sender's FIN, which it fires in place; no closure is built per
// packet. Arrivals fire strictly in (due time, scheduling order).
// Same-tick rule: when the scaled delay is so short that a packet is
// already due by the time it reaches the scheduler, and nothing is
// queued ahead of it, it is delivered on the writer's own goroutine
// before Write returns instead of through the timer — same order, no
// hand-off, and no event. Only an arrival that must wait becomes an
// event in the queue, held there by value. A delivered packet joins its
// endpoint's inbox, whose backing array Read reuses once it has drained
// it. Bandwidth is not modeled; ordering is FIFO per direction. Dial
// blocks for one round trip, like a TCP handshake, on the dialer's own
// goroutine (a wait under a microsecond of wall clock is spun out rather
// than slept).
//
// # Faults
//
// The fabric is runtime-scriptable, one mechanism per fault:
// Partition/Heal cut and restore whole host groups (a cut is symmetric;
// established connections crossing it are reset, new dials and pings
// fail fast with "network is unreachable"), SetLatencyScale stretches
// every topology latency (a global route change), Config.LossRate loses
// packets (delivered late by one RTO, as TCP retransmission would), and
// Kill/Revive crash and restore a host (its connections reset, dials and
// pings to it are refused).
//
// # Determinism
//
// Every random draw — jitter, loss — comes from a per-directed-link RNG
// stream seeded from Config.Seed and the link's endpoint indices. Two
// networks built with the same topology, names and seed produce
// identical measurement sequences as long as traffic on each link is
// issued in the same order; with JitterMean and LossRate zero no draws
// happen at all and runs are bit-for-bit deterministic regardless of
// goroutine interleaving. Wall-clock
// timing (TimeScale) never influences measured values: pings report
// simulated time.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/topology"
)

// Config parameterizes a Network.
type Config struct {
	// TimeScale multiplies every simulated delay before it is mapped to
	// the wall clock. 1.0 is real time; 1e-5 compresses a 100 ms RTT to
	// 1 µs. Default 1.0. Measured values are in simulated time and do
	// not depend on TimeScale.
	TimeScale float64
	// JitterMean is the mean of the exponential per-packet queueing
	// jitter in milliseconds of simulated time. Default 0 (no jitter,
	// no RNG draws).
	JitterMean float64
	// Seed drives every per-link RNG stream (jitter, loss).
	Seed int64
	// LossRate is the per-packet loss probability on every link. A lost
	// packet is not dropped — the connection retransmits, delivering it
	// one RTOMillis later, as TCP would. Lost ping samples are discarded
	// (and cost one RTO of wall time in Ping). Default 0.
	LossRate float64
	// RTOMillis is the simulated retransmission timeout added to a lost
	// packet's delivery, in milliseconds. Default 200.
	RTOMillis float64
}

func (c Config) withDefaults() Config {
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.RTOMillis <= 0 {
		c.RTOMillis = 200
	}
	return c
}

// linkKey identifies one directed link by topology host indices.
type linkKey [2]int

// Network is a virtual network over a topology. Host names map 1:1 to
// topology host indices. All methods are safe for concurrent use.
type Network struct {
	topo  *topology.Topology
	cfg   Config
	sched *scheduler

	mu         sync.Mutex
	names      map[string]int
	listeners  map[string]*listener
	rngs       map[linkKey]*rand.Rand
	dead       map[int]bool
	partitions []map[int]bool
	latScale   float64
	pairs      map[*pairConn]struct{}
	closed     bool
}

// New builds a Network over topo. names[i] becomes the address of
// topology host i; it must not contain duplicates.
func New(topo *topology.Topology, names []string, cfg Config) (*Network, error) {
	if len(names) != topo.NumHosts() {
		return nil, fmt.Errorf("simnet: %d names for %d hosts", len(names), topo.NumHosts())
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			return nil, fmt.Errorf("simnet: duplicate host name %q", n)
		}
		idx[n] = i
	}
	return &Network{
		topo:      topo,
		cfg:       cfg.withDefaults(),
		sched:     &scheduler{},
		names:     idx,
		listeners: make(map[string]*listener),
		rngs:      make(map[linkKey]*rand.Rand),
		dead:      make(map[int]bool),
		latScale:  1,
		pairs:     make(map[*pairConn]struct{}),
	}, nil
}

// DefaultNames returns host names "host-0" ... "host-N-1".
func DefaultNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("host-%d", i)
	}
	return names
}

// Close tears the fabric down: every connection resets, scheduled
// deliveries are dropped, and future dials fail. Idempotent.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	victims := make([]*pairConn, 0, len(n.pairs))
	for p := range n.pairs {
		victims = append(victims, p)
	}
	lns := make([]*listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		lns = append(lns, l)
	}
	n.listeners = make(map[string]*listener)
	n.mu.Unlock()
	n.sched.close()
	for _, l := range lns {
		l.shut()
	}
	for _, p := range victims {
		p.reset(net.ErrClosed)
	}
}

// Host returns a handle bound to the named host. All traffic
// originated through the handle experiences that host's latencies.
func (n *Network) Host(name string) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	idx, ok := n.names[name]
	if !ok {
		return nil, fmt.Errorf("simnet: unknown host %q", name)
	}
	return &Host{net: n, name: name, idx: idx}, nil
}

// addPair registers a live connection for fault targeting.
func (n *Network) addPair(p *pairConn) {
	n.mu.Lock()
	if !n.closed {
		n.pairs[p] = struct{}{}
	}
	n.mu.Unlock()
}

// dropPair forgets a closed or reset connection.
func (n *Network) dropPair(p *pairConn) {
	n.mu.Lock()
	delete(n.pairs, p)
	n.mu.Unlock()
}

// rngLocked returns the directed link's RNG stream, creating it
// deterministically from the network seed on first use. Callers hold
// n.mu.
func (n *Network) rngLocked(a, b int) *rand.Rand {
	k := linkKey{a, b}
	r, ok := n.rngs[k]
	if !ok {
		r = rand.New(rand.NewSource(linkSeed(n.cfg.Seed, a, b)))
		n.rngs[k] = r
	}
	return r
}

// linkSeed mixes the network seed with the directed link identity
// (splitmix64 finalizer) so each link gets an independent stream.
func linkSeed(seed int64, a, b int) int64 {
	z := uint64(seed) ^ (uint64(uint32(a))<<32 | uint64(uint32(b)))
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// oneWayMSLocked is the current effective one-way latency a→b in
// simulated milliseconds: the topology latency times the global latency
// scale. Callers hold n.mu.
func (n *Network) oneWayMSLocked(a, b int) float64 {
	return n.topo.OneWay(a, b) * n.latScale
}

// jitterMSLocked draws per-packet jitter for the directed link, in
// simulated milliseconds. No draw happens when jitter is disabled.
func (n *Network) jitterMSLocked(a, b int) float64 {
	if n.cfg.JitterMean <= 0 {
		return 0
	}
	return n.rngLocked(a, b).ExpFloat64() * n.cfg.JitterMean
}

// cutLocked reports whether a partition separates hosts a and b. It is
// symmetric: a cut stops traffic both ways. Callers hold n.mu.
func (n *Network) cutLocked(a, b int) bool {
	for _, set := range n.partitions {
		if set[a] != set[b] {
			return true
		}
	}
	return false
}

// cut is cutLocked for callers outside the lock.
func (n *Network) cut(a, b int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cutLocked(a, b)
}

// reachLocked is the verdict on a new dial or ping between hosts a and
// b: errConnRefused when the fabric is closed or either host is dead,
// errUnreachable when a partition separates them, nil otherwise.
// Callers hold n.mu.
func (n *Network) reachLocked(a, b int) error {
	switch {
	case n.closed || n.dead[a] || n.dead[b]:
		return errConnRefused
	case n.cutLocked(a, b):
		return errUnreachable
	}
	return nil
}

// listenerLocked is what a dial from host a finds at host b, named
// address: b's listener, or reachLocked's verdict, or errConnRefused
// when nothing listens there. Callers hold n.mu.
func (n *Network) listenerLocked(a, b int, address string) (*listener, error) {
	if err := n.reachLocked(a, b); err != nil {
		return nil, err
	}
	l, ok := n.listeners[address]
	if !ok {
		return nil, errConnRefused
	}
	return l, nil
}

// wall maps simulated milliseconds to a wall-clock duration.
func (n *Network) wall(ms float64) time.Duration {
	return time.Duration(ms * n.cfg.TimeScale * float64(time.Millisecond))
}

// sendVerdict decides one packet's fate on the directed link from→to:
// its wall-clock propagation delay (including jitter and, for a lost
// packet, one retransmission timeout), whether it is silently dropped
// (a partition separates the hosts), or whether the write resets the
// connection (the fabric is closed or a host is dead).
func (n *Network) sendVerdict(from, to int) (delay time.Duration, drop, reset bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.dead[from] || n.dead[to] {
		return 0, false, true
	}
	if n.cutLocked(from, to) {
		return 0, true, false
	}
	ms := n.oneWayMSLocked(from, to) + n.jitterMSLocked(from, to)
	if n.lostLocked(from, to) {
		ms += n.cfg.RTOMillis
	}
	return n.wall(ms), false, false
}

// plainDelay is the link's current base propagation delay with no RNG
// draws — used for control signals (EOF) so faults and jitter streams
// are not perturbed by connection shutdown.
func (n *Network) plainDelay(from, to int) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.wall(n.oneWayMSLocked(from, to))
}

// lostLocked draws whether one packet on the directed link a→b is lost.
// No draw happens when LossRate is zero. Callers hold n.mu.
func (n *Network) lostLocked(a, b int) bool {
	return n.cfg.LossRate > 0 && n.rngLocked(a, b).Float64() < n.cfg.LossRate
}

// resolve maps a host name to its index. Callers hold n.mu.
func (n *Network) resolveLocked(name string) (int, error) {
	idx, ok := n.names[name]
	if !ok {
		return 0, fmt.Errorf("simnet: unknown host %q", name)
	}
	return idx, nil
}

// ---- Runtime-scriptable faults ----

// Partition isolates the named hosts from every host NOT in the set:
// traffic within the set and within the complement still flows, traffic
// across is cut. Established connections crossing the cut are reset;
// new dials and pings across it fail immediately with "network is
// unreachable". Partitions compose — each call adds an independent cut
// that Heal removes.
func (n *Network) Partition(names ...string) error {
	n.mu.Lock()
	set := make(map[int]bool, len(names))
	for _, name := range names {
		idx, err := n.resolveLocked(name)
		if err != nil {
			n.mu.Unlock()
			return err
		}
		set[idx] = true
	}
	n.partitions = append(n.partitions, set)
	victims := n.crossingPairsLocked()
	n.mu.Unlock()
	for _, p := range victims {
		p.reset(errConnReset)
	}
	return nil
}

// Heal removes every partition. The latency scale and killed hosts are
// untouched.
func (n *Network) Heal() {
	n.mu.Lock()
	n.partitions = nil
	n.mu.Unlock()
}

// crossingPairsLocked collects live connections whose endpoints are
// currently separated by a cut. Callers hold n.mu; reset the returned
// pairs after releasing it (reset re-enters the network lock).
func (n *Network) crossingPairsLocked() []*pairConn {
	var victims []*pairConn
	for p := range n.pairs {
		if n.cutLocked(p.aIdx, p.bIdx) {
			victims = append(victims, p)
		}
	}
	return victims
}

// SetLatencyScale multiplies every topology latency by f — a
// fabric-wide route shift. f must be positive.
func (n *Network) SetLatencyScale(f float64) error {
	if f <= 0 {
		return fmt.Errorf("simnet: latency scale must be positive, got %v", f)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latScale = f
	return nil
}

// Kill crashes a host: its listeners close, every connection touching
// it resets, and dials or pings to it are refused until Revive. The
// application component must be restarted (and Listen called again)
// after Revive — simnet models the machine, not the process.
func (n *Network) Kill(name string) error {
	n.mu.Lock()
	idx, err := n.resolveLocked(name)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	n.dead[idx] = true
	var lns []*listener
	if l, ok := n.listeners[name]; ok {
		lns = append(lns, l)
		delete(n.listeners, name)
	}
	var victims []*pairConn
	for p := range n.pairs {
		if p.touches(idx) {
			victims = append(victims, p)
		}
	}
	n.mu.Unlock()
	for _, l := range lns {
		l.shut()
	}
	for _, p := range victims {
		p.reset(errConnReset)
	}
	return nil
}

// Revive brings a killed host's network back. Listeners must be
// re-created by the application.
func (n *Network) Revive(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	idx, err := n.resolveLocked(name)
	if err != nil {
		return err
	}
	delete(n.dead, idx)
	return nil
}

// GroundTruthRTT returns the current effective round-trip time a→b→a
// in simulated milliseconds — topology routing times the latency scale,
// jitter excluded. This is the oracle scenario assertions compare model
// estimates against.
func (n *Network) GroundTruthRTT(a, b string) (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ai, err := n.resolveLocked(a)
	if err != nil {
		return 0, err
	}
	bi, err := n.resolveLocked(b)
	if err != nil {
		return 0, err
	}
	if ai == bi {
		return 0, nil
	}
	return n.oneWayMSLocked(ai, bi) + n.oneWayMSLocked(bi, ai), nil
}

// ---- Host handle ----

// Host is a network endpoint. It implements the Dial/Listen/Ping
// surface the IDES client, landmark and server components are written
// against.
type Host struct {
	net  *Network
	name string
	idx  int
}

// Name returns the host's address on the virtual network.
func (h *Host) Name() string { return h.name }

// Listen starts accepting virtual connections addressed to this host.
// A host can hold at most one listener at a time.
func (h *Host) Listen() (net.Listener, error) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.net.closed {
		return nil, fmt.Errorf("simnet: network closed")
	}
	if h.net.dead[h.idx] {
		return nil, fmt.Errorf("simnet: host %q is down", h.name)
	}
	if _, exists := h.net.listeners[h.name]; exists {
		return nil, fmt.Errorf("simnet: host %q is already listening", h.name)
	}
	l := &listener{
		nw:      h.net,
		addr:    addr(h.name),
		backlog: make(chan net.Conn, 16),
		done:    make(chan struct{}),
	}
	h.net.listeners[h.name] = l
	return l, nil
}

// DialContext opens a virtual connection to the named host, blocking
// for one simulated round trip (the handshake; lost handshake packets
// add retransmission delay). Dials on a closed fabric, or to killed or
// non-listening hosts, are refused; dials across a partition fail with
// "network is unreachable". The network argument is accepted for signature
// compatibility with net.Dialer and ignored.
func (h *Host) DialContext(ctx context.Context, _, address string) (net.Conn, error) {
	dialErr := func(err error) error {
		return &net.OpError{Op: "dial", Net: "simnet", Addr: addr(address), Err: err}
	}
	h.net.mu.Lock()
	peerIdx, err := h.net.resolveLocked(address)
	if err != nil {
		h.net.mu.Unlock()
		return nil, dialErr(errConnRefused)
	}
	if _, err := h.net.listenerLocked(h.idx, peerIdx, address); err != nil {
		h.net.mu.Unlock()
		return nil, dialErr(err)
	}
	// Handshake: one full round trip, each direction paying its own
	// jitter and loss retransmissions.
	rttMS := h.net.oneWayMSLocked(h.idx, peerIdx) + h.net.jitterMSLocked(h.idx, peerIdx) +
		h.net.oneWayMSLocked(peerIdx, h.idx) + h.net.jitterMSLocked(peerIdx, h.idx)
	if h.net.lostLocked(h.idx, peerIdx) {
		rttMS += h.net.cfg.RTOMillis
	}
	if h.net.lostLocked(peerIdx, h.idx) {
		rttMS += h.net.cfg.RTOMillis
	}
	wait := h.net.wall(rttMS)
	h.net.mu.Unlock()

	if err := sleepCtx(ctx, wait); err != nil {
		return nil, dialErr(err)
	}

	// Re-check the world after the handshake delay: the listener may
	// have closed, the host died, or a partition landed mid-handshake.
	h.net.mu.Lock()
	l, err := h.net.listenerLocked(h.idx, peerIdx, address)
	h.net.mu.Unlock()
	if err != nil {
		return nil, dialErr(err)
	}

	cli, srv := h.net.newPair(h.idx, peerIdx, addr(h.name), addr(address))
	// An open listener's backlog almost always has room: hand the
	// connection over without the wait below, which asks ctx for its
	// Done channel (a context builds one on first ask). A closed
	// listener is refused there, as is a dial left waiting for room.
	select {
	case <-l.done:
	default:
		select {
		case l.backlog <- srv:
			return cli, nil
		default:
		}
	}
	select {
	case l.backlog <- srv:
		return cli, nil
	case <-l.done:
		cli.Close()
		srv.Close()
		return nil, dialErr(errConnRefused)
	case <-ctx.Done():
		cli.Close()
		srv.Close()
		return nil, dialErr(ctx.Err())
	}
}

// Ping measures the RTT to the named host like an ICMP echo: it sleeps
// one (scaled) round trip of wall-clock time per sample and reports
// the minimum simulated RTT across samples, the standard technique for
// stripping queueing jitter. Lost samples (LossRate) are discarded and
// cost one retransmission timeout of simulated time; if every sample
// is lost, or the target is killed or partitioned away, Ping fails.
func (h *Host) Ping(ctx context.Context, address string, samples int) (time.Duration, error) {
	return h.ping(ctx, address, samples, true)
}

// PingInstant is Ping without the wall-clock sleeps, for measurement
// campaigns in tests and experiments where real time is irrelevant. It
// consumes the same RNG draws as Ping, so mixing the two preserves
// determinism.
func (h *Host) PingInstant(address string, samples int) (time.Duration, error) {
	return h.ping(context.Background(), address, samples, false)
}

func (h *Host) ping(ctx context.Context, address string, samples int, sleep bool) (time.Duration, error) {
	if samples <= 0 {
		samples = 1
	}
	best := -1.0
	for s := 0; s < samples; s++ {
		h.net.mu.Lock()
		peerIdx, err := h.net.resolveLocked(address)
		if err != nil {
			h.net.mu.Unlock()
			return 0, fmt.Errorf("simnet: ping: unknown host %q", address)
		}
		if err := h.net.reachLocked(h.idx, peerIdx); err != nil {
			h.net.mu.Unlock()
			return 0, fmt.Errorf("simnet: ping %s: %w", address, err)
		}
		// Both directions draw, lost or not: no short-circuit.
		lost := h.net.lostLocked(h.idx, peerIdx)
		if h.net.lostLocked(peerIdx, h.idx) {
			lost = true
		}
		// One queueing-jitter draw per echo (from the forward link's
		// stream): an echo is one packet exchange, not two independent
		// congestion events, and min-filtering then strips jitter at the
		// rate real ping campaigns see.
		simMS := h.net.oneWayMSLocked(h.idx, peerIdx) + h.net.oneWayMSLocked(peerIdx, h.idx) +
			h.net.jitterMSLocked(h.idx, peerIdx)
		waitMS := simMS
		if lost {
			waitMS += h.net.cfg.RTOMillis
		}
		wait := h.net.wall(waitMS)
		h.net.mu.Unlock()
		if sleep {
			if err := sleepCtx(ctx, wait); err != nil {
				return 0, err
			}
		}
		if lost {
			continue
		}
		if best < 0 || simMS < best {
			best = simMS
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("simnet: ping %s: all %d samples lost", address, samples)
	}
	return time.Duration(best * float64(time.Millisecond)), nil
}

// spinBelow is the longest wait sleepCtx spins out instead of arming a
// timer. A timer cannot honour a wait shorter than the goroutine park
// and wake behind it — a few microseconds — so below that a timer buys
// nothing and costs the switch; at the gossip harness's TimeScale of
// 1e-6 a handshake is 0.1–0.3 µs of wall clock. The spin does not
// yield: it is over before a yield would come back.
const spinBelow = time.Microsecond

// sleepCtx waits out d of wall-clock time on the caller's goroutine —
// the dial handshake and Ping's echo, which deliver nothing and so need
// no place in the scheduler's queue — or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if d < spinBelow {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
		return ctx.Err()
	}
	t := acquireTimer(d)
	defer releaseTimer(t)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var (
	errConnRefused = fmt.Errorf("connection refused: %w", os.ErrNotExist)
	errUnreachable = errors.New("network is unreachable")
	errConnReset   = errors.New("connection reset by peer")
)

// addr is a simnet network address.
type addr string

func (a addr) Network() string { return "simnet" }
func (a addr) String() string  { return string(a) }

// listener implements net.Listener for a simnet host.
type listener struct {
	nw      *Network
	addr    addr
	backlog chan net.Conn
	once    sync.Once
	done    chan struct{}
}

// Accept waits for the next inbound connection.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "simnet", Addr: l.addr, Err: net.ErrClosed}
	}
}

// Close stops the listener and releases its address.
func (l *listener) Close() error {
	l.nw.mu.Lock()
	if l.nw.listeners[string(l.addr)] == l {
		delete(l.nw.listeners, string(l.addr))
	}
	l.nw.mu.Unlock()
	l.shut()
	return nil
}

// shut closes the done channel without touching the network lock, so
// Kill and Close can call it while coordinating the listener map
// themselves.
func (l *listener) shut() {
	l.once.Do(func() { close(l.done) })
}

// Addr returns the listener's address.
func (l *listener) Addr() net.Addr { return l.addr }
