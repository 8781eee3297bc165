package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// serveReplTCP runs s on a loopback listener and returns its address
// plus an explicit shutdown func — unlike serveTCP's t.Cleanup form, the
// leader-loss tests need to stop serving mid-test.
func serveReplTCP(t *testing.T, s *Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ctx, ln) //nolint:errcheck
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

// newTestFollower builds a follower of the leader at addr with fast
// timeouts for tests.
func newTestFollower(t *testing.T, addr, id string) *Server {
	t.Helper()
	f, err := New(Config{
		Role:           RoleFollower,
		LeaderAddr:     addr,
		FollowerID:     id,
		Dim:            3,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitEpoch waits until s serves epoch or a later one.
func waitEpoch(t *testing.T, s *Server, epoch uint64) {
	t.Helper()
	waitCond(t, 10*time.Second, fmt.Sprintf("epoch %d", epoch), func() bool { return s.Epoch() >= epoch })
}

func TestFollowerValidation(t *testing.T) {
	if _, err := New(Config{Role: RoleFollower}); err == nil {
		t.Fatal("follower without a leader address must be rejected")
	}
	// A follower needs no landmarks: the stream supplies them.
	f, err := New(Config{Role: RoleFollower, LeaderAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f.cfg.Role != RoleFollower {
		t.Fatalf("Role = %v", f.cfg.Role)
	}
}

// TestFollowerReplication is the happy path end to end: initial sync of
// model and directory, live directory deltas, write forwarding with
// read-your-writes, and convergence onto a new epoch.
func TestFollowerReplication(t *testing.T) {
	leader := ringLandmarks(t, core.SVD)
	defer leader.Close()
	if _, err := leader.Model(); err != nil { // epoch 1
		t.Fatal(err)
	}
	preSync := registerRingHosts(t, leader, 2) // in the directory before any follower
	addr, stopLeader := serveReplTCP(t, leader)
	defer stopLeader()

	f := newTestFollower(t, addr, "f1")
	defer f.Close()

	// Initial sync: model epoch and the pre-existing directory arrive.
	waitEpoch(t, f, leader.Epoch())
	waitCond(t, 5*time.Second, "directory sync", func() bool { return f.NumHosts() >= len(preSync) })

	// Replicated reads: the paper's H0→L4 estimate must come out of the
	// follower's local engine exactly as it does from the leader.
	typ, payload := f.Handle(wire.TypeQueryDist, (&wire.QueryDist{From: preSync[0], To: "L4"}).Encode(nil))
	if typ != wire.TypeDistance {
		t.Fatalf("follower QueryDist answered %v", typ)
	}
	dd, err := wire.ParseDistance(payload)
	if err != nil || !dd.Found {
		t.Fatalf("follower distance %+v %v", dd, err)
	}
	if math.Abs(dd.Millis-2.5) > 1e-6 {
		t.Fatalf("follower H0→L4 = %v want 2.5", dd.Millis)
	}

	// GetModel serves the replicated generation.
	typ, payload = f.Handle(wire.TypeGetModel, nil)
	if typ != wire.TypeModel {
		t.Fatalf("follower GetModel answered %v", typ)
	}
	m, err := wire.DecodeModel(payload)
	if err != nil || m.Epoch != leader.Epoch() || len(m.Landmarks) != 4 {
		t.Fatalf("follower model %+v %v", m, err)
	}

	// Live delta: a host registered on the leader after subscription
	// shows up on the follower without a resync.
	model, err := leader.Model()
	if err != nil {
		t.Fatal(err)
	}
	d := []float64{1, 2, 2, 3}
	hv, err := model.SolveHost(d, d)
	if err != nil {
		t.Fatal(err)
	}
	reg := &wire.RegisterHost{Addr: "live-host", Out: hv.Out, In: hv.In, Epoch: leader.Epoch()}
	if typ, _ := leader.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("leader register failed")
	}
	waitCond(t, 5*time.Second, "live registration", func() bool {
		typ, payload := f.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "live-host"}).Encode(nil))
		if typ != wire.TypeVectors {
			return false
		}
		v, err := wire.DecodeVectors(payload)
		return err == nil && v.Found
	})

	// Write forwarding with read-your-writes: registering through the
	// follower lands on the leader AND resolves on the follower at once.
	reg = &wire.RegisterHost{Addr: "fwd-host", Out: hv.Out, In: hv.In, Epoch: leader.Epoch()}
	if typ, _ := f.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("forwarded register failed")
	}
	typ, payload = f.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "fwd-host"}).Encode(nil))
	v, err := wire.DecodeVectors(payload)
	if typ != wire.TypeVectors || err != nil || !v.Found {
		t.Fatalf("read-your-writes on follower: %v %+v %v", typ, v, err)
	}
	typ, _ = leader.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "fwd-host"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("leader missing forwarded registration: %v", typ)
	}

	// Forwarded reports drive a leader refit; the follower converges.
	rep := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{{To: "L2", RTTMillis: 1.2}}}
	if typ, _ := f.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("forwarded report failed")
	}
	epoch, err := leader.Refit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, f, epoch)

	r := leader.repl
	if r.subscribers() != 1 || r.framesSent.Load() == 0 || r.bytesSent.Load() == 0 {
		t.Fatalf("leader replication: %d subscribers, %d frames, %d bytes sent",
			r.subscribers(), r.framesSent.Load(), r.bytesSent.Load())
	}
	fl := f.follower
	if !fl.connected.Load() || f.LifecycleStats().Epoch != epoch || fl.framesApplied.Load() == 0 {
		t.Fatalf("follower replication: connected %v, epoch %d (want %d), %d frames applied",
			fl.connected.Load(), f.LifecycleStats().Epoch, epoch, fl.framesApplied.Load())
	}
}

// TestFollowerModelIsLeaders: the stream carries the leader's Model
// payload and the follower installs it through the same encoder, so at
// every (epoch, rev) — a fit, then three SGD revisions — the follower's
// GetModel reply is the leader's, byte for byte, and carries the Rev.
func TestFollowerModelIsLeaders(t *testing.T) {
	lm := []string{"L1", "L2", "L3", "L4"}
	leader, err := New(Config{
		Landmarks:           lm,
		Dim:                 3,
		Seed:                1,
		Solver:              solve.SGD,
		RefitMinInterval:    time.Millisecond,
		DriftEpochThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	d := [][]float64{{0, 10, 12, 21}, {10, 0, 20, 11}, {12, 20, 0, 13}, {21, 11, 13, 0}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report := func(scale float64) {
		t.Helper()
		for i, from := range lm {
			rep := &wire.ReportRTT{From: from}
			for j, to := range lm {
				if i != j {
					rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j] * scale})
				}
			}
			if typ, _ := leader.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
				t.Fatalf("report %d rejected", i)
			}
		}
		if err := leader.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	report(1)
	addr, stopLeader := serveReplTCP(t, leader)
	defer stopLeader()
	f := newTestFollower(t, addr, "f1")
	defer f.Close()

	var last uint64
	for round := 0; round < 4; round++ {
		if round > 0 {
			report(1 + 0.02*float64(round))
		}
		ls := leader.LifecycleStats()
		if ls.Epoch != 1 || (round > 0 && ls.Rev <= last) {
			t.Fatalf("round %d: leader at (%d, %d) after rev %d, want a revision of epoch 1", round, ls.Epoch, ls.Rev, last)
		}
		last = ls.Rev
		waitCond(t, 5*time.Second, fmt.Sprintf("follower at (%d, %d)", ls.Epoch, ls.Rev), func() bool {
			fs := f.LifecycleStats()
			return fs.Epoch == ls.Epoch && fs.Rev == ls.Rev
		})
		lt, want := leader.Handle(wire.TypeGetModel, nil)
		ft, got := f.Handle(wire.TypeGetModel, nil)
		if lt != wire.TypeModel || ft != wire.TypeModel || !bytes.Equal(got, want) {
			t.Fatalf("(%d, %d): follower GetModel %v (%d B) differs from the leader's %v (%d B)",
				ls.Epoch, ls.Rev, ft, len(got), lt, len(want))
		}
		if m, err := wire.DecodeModel(got); err != nil || m.Epoch != ls.Epoch || m.Rev != ls.Rev {
			t.Fatalf("(%d, %d): follower model decodes to %+v %v", ls.Epoch, ls.Rev, m, err)
		}
	}
}

// countingConn counts Write calls on the conn it wraps.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestSubscribeSyncBatchesRegistrations: the initial sync is the served
// Model, then one RegisterHost frame per directory entry, 256 frames to
// a write — n hosts cost ⌈n/256⌉ writes, not n — and the leader counts
// frames, as the follower does, not writes.
func TestSubscribeSyncBatchesRegistrations(t *testing.T) {
	leader := ringLandmarks(t, core.SVD)
	defer leader.Close()
	const n = 600
	registerRingHosts(t, leader, n)

	srvEnd, cliEnd := net.Pipe()
	conn := &countingConn{Conn: srvEnd}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		leader.serveSubscriber(ctx, conn, (&wire.Subscribe{ID: "f1"}).Encode(nil))
	}()
	defer func() {
		cancel()
		cliEnd.Close()
		<-done
	}()

	typ, payload, err := wire.ReadFrame(cliEnd)
	if err != nil || typ != wire.TypeModel {
		t.Fatalf("first frame %v %v, want Model", typ, err)
	}
	if m, err := wire.DecodeModel(payload); err != nil || m.Epoch != leader.Epoch() {
		t.Fatalf("first Model %+v %v, want epoch %d", m, err, leader.Epoch())
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		typ, payload, err := wire.ReadFrame(cliEnd)
		if err != nil || typ != wire.TypeRegisterHost {
			t.Fatalf("sync frame %d: %v %v, want RegisterHost", i, typ, err)
		}
		reg, err := wire.ParseRegisterHost(payload)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(reg.Addr)] = true
	}
	if len(seen) != n {
		t.Fatalf("sync carried %d distinct hosts, want %d", len(seen), n)
	}
	if got, want := conn.writes.Load(), int64(1+(n+255)/256); got != want {
		t.Fatalf("sync took %d writes, want %d (one Model, then 256 registrations a write)", got, want)
	}
	waitCond(t, 5*time.Second, "frames counted", func() bool { return leader.repl.framesSent.Load() == 1+n })
}

// TestFollowerRefusesPreModelLeader: the stream was never versioned, so
// a leader whose first frame after Subscribe is not a Model (here the
// retired 0x13 snapshot frame) predates it. The follower fails the
// stream with an error that says so instead of serving nothing.
func TestFollowerRefusesPreModelLeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, err := wire.ReadFrame(c); err != nil {
			return
		}
		wire.WriteFrame(c, wire.MsgType(0x13), make([]byte, 40)) //nolint:errcheck
		io.Copy(io.Discard, c)                                   //nolint:errcheck
	}()
	f := &follower{
		id:         "f1",
		leader:     ln.Addr().String(),
		dialer:     &net.Dialer{},
		qs:         newQueryService(query.New(query.Config{}), Config{}),
		reqTimeout: 5 * time.Second,
		logf:       t.Logf,
	}
	// A follower that ignored the frame would wait on the stream forever.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = f.stream(ctx)
	if err == nil || !strings.Contains(err.Error(), "upgrade the leader and its followers together") {
		t.Fatalf("stream from a pre-Model leader returned %v", err)
	}
	if f.connected.Load() {
		t.Fatal("a pre-Model leader counted as connected")
	}
}

// TestFollowerServesDuringLeaderLoss: killing the leader must not cost a
// single read on the follower — it keeps serving the last replicated
// generation — while writes degrade to CodeUnavailable. Reads through a
// ClusterPool over [leader, follower], both on TCP, fail over to the
// follower without one error. A restarted leader is picked up by the
// reconnect loop and the follower converges on its new fit.
func TestFollowerServesDuringLeaderLoss(t *testing.T) {
	leader := ringLandmarks(t, core.SVD)
	if _, err := leader.Model(); err != nil {
		t.Fatal(err)
	}
	hosts := registerRingHosts(t, leader, 1)
	addr, stopLeader := serveReplTCP(t, leader)

	f := newTestFollower(t, addr, "f1")
	defer f.Close()
	preKill := leader.Epoch()
	waitEpoch(t, f, preKill)
	waitCond(t, 5*time.Second, "directory sync", func() bool { return f.NumHosts() >= 1 })
	faddr, stopFollower := serveReplTCP(t, f)
	defer stopFollower()

	reg := telemetry.NewRegistry()
	cp, err := transport.NewClusterPool(transport.ClusterConfig{
		Servers:       []string{addr, faddr},
		PoolConfig:    transport.PoolConfig{Dialer: &net.Dialer{Timeout: 5 * time.Second}, CallTimeout: 5 * time.Second},
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cp.RegisterMetrics(reg)
	query := (&wire.QueryDist{From: hosts[0], To: "L4"}).Encode(nil)
	clusterReads := func(phase string) {
		t.Helper()
		for i := 0; i < 50; i++ {
			typ, payload, _, err := cp.Call(context.Background(), wire.TypeQueryDist, query)
			if err != nil || typ != wire.TypeDistance {
				t.Fatalf("%s: cluster read %d answered %v %v", phase, i, typ, err)
			}
			if dd, err := wire.ParseDistance(payload); err != nil || !dd.Found {
				t.Fatalf("%s: cluster read %d: %+v %v", phase, i, dd, err)
			}
		}
	}
	clusterReads("before the kill")

	// Kill the leader: stop its listener and its pipeline.
	stopLeader()
	leader.Close()
	waitCond(t, 5*time.Second, "stream loss detection", func() bool { return !f.follower.connected.Load() })

	// Reads still come from the pre-kill generation, locally and through
	// the cluster pool, which must have replayed at least one on the
	// follower.
	for i := 0; i < 50; i++ {
		typ, payload := f.Handle(wire.TypeQueryDist, query)
		if typ != wire.TypeDistance {
			t.Fatalf("read %d during leader loss answered %v", i, typ)
		}
		if dd, err := wire.ParseDistance(payload); err != nil || !dd.Found {
			t.Fatalf("read %d during leader loss: %+v %v", i, dd, err)
		}
	}
	clusterReads("during leader loss")
	if n := reg.Export()["ides_cluster_failovers_total"]; n < 1 {
		t.Fatalf("ides_cluster_failovers_total = %v across the leader kill, want ≥ 1", n)
	}
	if got := f.Epoch(); got != preKill {
		t.Fatalf("follower epoch moved during leader loss: %d -> %d", preKill, got)
	}

	// Writes degrade loudly instead of hanging: CodeUnavailable.
	rep := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{{To: "L2", RTTMillis: 1.5}}}
	typ, payload := f.Handle(wire.TypeReportRTT, rep.Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("forwarded report with dead leader answered %v", typ)
	}
	if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeUnavailable {
		t.Fatalf("code %d, want CodeUnavailable", werr.Code)
	}

	// Promote a replacement leader on the same address: the follower's
	// reconnect loop finds it and converges on its (later) generation.
	lm := []string{"L1", "L2", "L3", "L4"}
	leader2, err := New(Config{Landmarks: lm, Dim: 3, Algorithm: core.SVD, Seed: 1, BaseEpoch: preKill})
	if err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	d := [][]float64{{0, 1, 1, 2}, {1, 0, 2, 1}, {1, 2, 0, 1}, {2, 1, 1, 0}}
	for i, from := range lm {
		rep := &wire.ReportRTT{From: from}
		for j, to := range lm {
			if i != j {
				rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j]})
			}
		}
		leader2.Handle(wire.TypeReportRTT, rep.Encode(nil))
	}
	if _, err := leader2.Model(); err != nil { // epoch preKill+1
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go leader2.Serve(ctx2, ln) //nolint:errcheck

	waitEpoch(t, f, leader2.Epoch())
	if fl := f.follower; !fl.connected.Load() || fl.reconnects.Load() == 0 {
		t.Fatalf("follower after promotion: connected %v, %d reconnects", fl.connected.Load(), fl.reconnects.Load())
	}
}

func TestSubscribeRejectedOutsideStream(t *testing.T) {
	s := testServer(t, []string{"a", "b"}, core.SVD)
	defer s.Close()
	// In-process dispatch has no connection to upgrade.
	typ, payload := s.Handle(wire.TypeSubscribe, (&wire.Subscribe{ID: "x"}).Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("in-process Subscribe answered %v", typ)
	}
	if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeBadRequest {
		t.Fatalf("code %d, want CodeBadRequest", werr.Code)
	}
}

// TestFollowerRejectsSubscribers: chaining a follower onto a follower is
// not supported; the handshake must fail fast with an error frame, not
// hang the would-be subscriber.
func TestFollowerRejectsSubscribers(t *testing.T) {
	f, err := New(Config{Role: RoleFollower, LeaderAddr: "127.0.0.1:1", RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addr, stop := serveReplTCP(t, f)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sub := wire.Subscribe{ID: "f2"}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.TypeSubscribe, sub.Encode(nil))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError {
		t.Fatalf("follower answered Subscribe with %v", typ)
	}
	if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeBadRequest {
		t.Fatalf("code %d, want CodeBadRequest", werr.Code)
	}
}

// TestFollowerNeverServesMixedEpochRows_Race is the replication-tier
// mirror of lifecycle's TestRevisionsNeverMixFits_Race: while the leader
// churns out fresh fits and the follower's stream goroutine applies
// them, concurrent follower readers hammer the served model and the
// query path. Replicated models are freshly decoded per frame and
// installed behind the same ordering as a local fit, so under -race
// this proves a follower never serves a row from a half-applied frame
// — and that its served (epoch, rev) sequence never goes backward.
func TestFollowerNeverServesMixedEpochRows_Race(t *testing.T) {
	lm := []string{"L1", "L2", "L3", "L4"}
	leader, err := New(Config{
		Landmarks:        lm,
		Dim:              2,
		Algorithm:        core.SVD,
		Seed:             1,
		RefitMinInterval: time.Microsecond,
		RefitThreshold:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	d := [][]float64{{0, 1, 1, 2}, {1, 0, 2, 1}, {1, 2, 0, 1}, {2, 1, 1, 0}}
	feed := func(scale float64) {
		for i, from := range lm {
			rep := &wire.ReportRTT{From: from}
			for j, to := range lm {
				if i != j {
					rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j] * scale})
				}
			}
			leader.Handle(wire.TypeReportRTT, rep.Encode(nil))
		}
	}
	feed(1)
	if _, err := leader.Model(); err != nil {
		t.Fatal(err)
	}
	addr, stopLeader := serveReplTCP(t, leader)
	defer stopLeader()

	f := newTestFollower(t, addr, "f1")
	defer f.Close()
	waitEpoch(t, f, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch, lastRev uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := f.qs.served()
				if st == nil {
					continue
				}
				if st.snap.Epoch < lastEpoch || (st.snap.Epoch == lastEpoch && st.snap.Rev < lastRev) {
					t.Errorf("follower served order went backward: (%d,%d) -> (%d,%d)",
						lastEpoch, lastRev, st.snap.Epoch, st.snap.Rev)
					return
				}
				lastEpoch, lastRev = st.snap.Epoch, st.snap.Rev
				// Touch every row of the served model — the reads the race
				// detector pits against any write into an installed frame.
				for i := range st.addrs {
					for j := range st.addrs {
						if v := st.snap.Model.EstimateLandmarks(i, j); math.IsNaN(v) {
							t.Errorf("NaN estimate in replicated snapshot (%d,%d)", st.snap.Epoch, st.snap.Rev)
							return
						}
					}
				}
				// And the wire path on top of it.
				typ, payload := f.Handle(wire.TypeQueryBatch,
					(&wire.QueryBatch{From: "L1", Targets: []string{"L2", "L4"}}).Encode(nil))
				if typ != wire.TypeDistances {
					t.Errorf("follower QueryBatch answered %v", typ)
					return
				}
				resp, err := wire.DecodeDistances(payload)
				if err != nil {
					t.Errorf("torn distances: %v", err)
					return
				}
				for _, r := range resp.Results {
					if r.Found && (math.IsNaN(r.Millis) || math.IsInf(r.Millis, 0)) {
						t.Errorf("torn estimate: %v", r.Millis)
						return
					}
				}
				served.Add(1)
			}
		}()
	}

	// Drive epoch churn from the leader while the readers run.
	base := leader.Epoch()
	for round := 0; round < 8; round++ {
		feed(1 + float64(round)/10)
		if _, err := leader.Refit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitEpoch(t, f, leader.Epoch())
	close(stop)
	wg.Wait()
	if leader.Epoch() <= base {
		t.Fatalf("expected epoch churn, epoch still %d", leader.Epoch())
	}
	if served.Load() == 0 {
		t.Fatal("readers never observed a served generation")
	}
	t.Logf("follower served %d reads across epochs %d..%d", served.Load(), base, leader.Epoch())
}

// TestReportWithUnpaidCountRefused: a ReportRTT whose entry count the
// six bytes of its payload cannot hold is a bad request, to a leader
// directly and to the leader behind a follower that forwards it — and
// the leader refuses it without allocating what the count asks for
// (161 MB when DecodeReportRTT bounded the count by MaxPayload alone).
func TestReportWithUnpaidCountRefused(t *testing.T) {
	leader := ringLandmarks(t, core.SVD)
	defer leader.Close()
	payload := wire.AppendUint32([]byte{0, 0}, wire.MaxPayload/10)
	refused := func(s *Server) {
		t.Helper()
		typ, reply := s.Handle(wire.TypeReportRTT, payload)
		if werr, err := wire.DecodeError(reply); typ != wire.TypeError || err != nil || werr.Code != wire.CodeBadRequest {
			t.Fatalf("answered %v %+v %v, want CodeBadRequest", typ, werr, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refused(leader)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing a %d-byte report allocated %d bytes", len(payload), got)
	}

	addr, stopLeader := serveReplTCP(t, leader)
	defer stopLeader()
	f := newTestFollower(t, addr, "f1")
	defer f.Close()
	refused(f)
}
