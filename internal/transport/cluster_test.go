package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

func newTestCluster(t *testing.T, servers []string, cfg ClusterConfig) *ClusterPool {
	t.Helper()
	cfg.Servers = servers
	if cfg.Pool == nil && cfg.PoolConfig.Dialer == nil {
		cfg.PoolConfig.Dialer = &net.Dialer{}
	}
	cp, err := NewClusterPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() })
	return cp
}

func clusterPing(t *testing.T, cp *ClusterPool, token uint64) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	typ, payload, addr, err := cp.Call(ctx, wire.TypePing, (&wire.Ping{Token: token}).Encode(nil))
	if err != nil {
		t.Fatalf("cluster call: %v", err)
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v, want Pong", typ)
	}
	if pong, err := wire.DecodePong(payload); err != nil || pong.Token != token {
		t.Fatalf("pong %+v err %v, want token %d", pong, err, token)
	}
	return addr
}

func TestClusterPoolValidation(t *testing.T) {
	if _, err := NewClusterPool(ClusterConfig{PoolConfig: PoolConfig{Dialer: &net.Dialer{}}}); err == nil {
		t.Fatal("cluster without servers must be rejected")
	}
	if _, err := NewClusterPool(ClusterConfig{Servers: []string{"a", "a"}, PoolConfig: PoolConfig{Dialer: &net.Dialer{}}}); err == nil {
		t.Fatal("duplicate endpoints must be rejected")
	}
	if _, err := NewClusterPool(ClusterConfig{Servers: []string{""}, PoolConfig: PoolConfig{Dialer: &net.Dialer{}}}); err == nil {
		t.Fatal("empty endpoint must be rejected")
	}
	if _, err := NewClusterPool(ClusterConfig{Servers: []string{"a"}}); err == nil {
		t.Fatal("missing dialer must be rejected")
	}
}

func TestClusterPoolCallsAllHealthy(t *testing.T) {
	_, addr1 := testutil.CountingEcho(t)
	_, addr2 := testutil.CountingEcho(t)
	cp := newTestCluster(t, []string{addr1, addr2}, ClusterConfig{})
	for i := 0; i < 10; i++ {
		served := clusterPing(t, cp, uint64(i+1))
		if served != addr1 && served != addr2 {
			t.Fatalf("served by %q, not a configured endpoint", served)
		}
	}
	if n := cp.failovers.Load(); n != 0 {
		t.Fatalf("%d failovers among healthy endpoints", n)
	}
	for addr, up := range cp.Health() {
		if !up {
			t.Fatalf("endpoint %s marked down", addr)
		}
	}
}

// TestClusterPoolFailover: with one endpoint dead, every call must
// still succeed — transparently replayed on the survivor — and the dead
// endpoint leaves rotation.
func TestClusterPoolFailover(t *testing.T) {
	ln1 := testutil.Loopback(t)
	addr1 := ln1.Addr().String()
	tracking := &testutil.TrackingListener{Listener: ln1}
	testutil.EchoServer(t, tracking)
	_, addr2 := testutil.CountingEcho(t)

	cp := newTestCluster(t, []string{addr1, addr2}, ClusterConfig{
		ProbeInterval: 50 * time.Millisecond,
		PoolConfig:    PoolConfig{Dialer: &net.Dialer{}, CallTimeout: 2 * time.Second},
	})
	clusterPing(t, cp, 1)

	// Kill endpoint 1: listener and its accepted connections.
	ln1.Close()
	tracking.CloseConns()
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 20; i++ {
		if served := clusterPing(t, cp, uint64(i+10)); served != addr2 {
			// The first post-kill calls may be replays; once marked down,
			// everything lands on the survivor.
			if cp.Health()[addr1] {
				continue
			}
			t.Fatalf("call %d served by %q after endpoint was marked down", i, served)
		}
	}
	if cp.Health()[addr1] {
		t.Fatal("dead endpoint still in rotation")
	}
	if cp.failovers.Load() == 0 {
		t.Fatal("no failovers counted")
	}
}

// TestClusterPoolReprobe: a downed endpoint that comes back is returned
// to rotation by the background probe, with no client action.
func TestClusterPoolReprobe(t *testing.T) {
	ln1 := testutil.Loopback(t)
	addr1 := ln1.Addr().String()
	tracking := &testutil.TrackingListener{Listener: ln1}
	testutil.EchoServer(t, tracking)
	_, addr2 := testutil.CountingEcho(t)

	cp := newTestCluster(t, []string{addr1, addr2}, ClusterConfig{
		ProbeInterval: 25 * time.Millisecond,
		PoolConfig:    PoolConfig{Dialer: &net.Dialer{}, CallTimeout: 2 * time.Second},
	})
	clusterPing(t, cp, 1)
	ln1.Close()
	tracking.CloseConns()
	time.Sleep(20 * time.Millisecond)

	// Drive calls until the failure is noticed.
	deadline := time.Now().Add(5 * time.Second)
	for cp.Health()[addr1] {
		if time.Now().After(deadline) {
			t.Fatal("endpoint never marked down")
		}
		clusterPing(t, cp, 2)
	}

	// Revive it on the same address; the probe must restore it.
	ln2, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr1, err)
	}
	t.Cleanup(func() { ln2.Close() })
	testutil.EchoServer(t, ln2)
	deadline = time.Now().Add(5 * time.Second)
	for !cp.Health()[addr1] {
		if time.Now().After(deadline) {
			t.Fatal("revived endpoint never returned to rotation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterPoolWireErrorDoesNotFailOver: an application-level error
// frame is an answer, not an outage — it must come back to the caller
// from the first endpoint, with no replay and no health change.
func TestClusterPoolWireErrorDoesNotFailOver(t *testing.T) {
	_, addr1 := testutil.CountingEcho(t)
	_, addr2 := testutil.CountingEcho(t)
	cp := newTestCluster(t, []string{addr1, addr2}, ClusterConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, _, err := cp.Call(ctx, wire.TypeGetModel, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) {
		t.Fatalf("error %v should unwrap to *wire.Error", err)
	}
	if cp.failovers.Load() != 0 {
		t.Fatal("wire error tripped a failover")
	}
	for addr, up := range cp.Health() {
		if !up {
			t.Fatalf("wire error marked %s down", addr)
		}
	}
}

func TestClusterPoolAllEndpointsDead(t *testing.T) {
	// Unroutable ports: every attempt must fail fast and the aggregate
	// error must say how many endpoints were tried.
	cp := newTestCluster(t, []string{"127.0.0.1:1", "127.0.0.1:2"}, ClusterConfig{
		PoolConfig: PoolConfig{Dialer: &net.Dialer{}, CallTimeout: time.Second},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, _, err := cp.Call(ctx, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil))
	if err == nil {
		t.Fatal("expected failure with every endpoint dead")
	}
	if !strings.Contains(err.Error(), "2 cluster endpoints") {
		t.Fatalf("error %v does not account for both endpoints", err)
	}
}

func TestClusterPoolMetrics(t *testing.T) {
	_, addr1 := testutil.CountingEcho(t)
	_, addr2 := testutil.CountingEcho(t)
	cp := newTestCluster(t, []string{addr1, addr2}, ClusterConfig{})
	reg := telemetry.NewRegistry()
	cp.RegisterMetrics(reg)
	cp.Pool().RegisterMetrics(reg)
	clusterPing(t, cp, 1)

	exp := reg.Export()
	for _, addr := range []string{addr1, addr2} {
		key := `ides_cluster_endpoint_up{endpoint="` + addr + `"}`
		if exp[key] != 1 {
			t.Fatalf("%s = %v, want 1 (export: %v)", key, exp[key], exp)
		}
	}
	// The served endpoint's pool counters must appear labelled.
	var dials float64
	for _, addr := range []string{addr1, addr2} {
		dials += exp[`ides_pool_dials_total{endpoint="`+addr+`"}`]
	}
	if dials == 0 {
		t.Fatalf("no labelled per-endpoint dials in export: %v", exp)
	}
}

// TestPoolEndpointStats: the pool breaks its counters down per server
// address, and the aggregate remains the sum.
func TestPoolEndpointStats(t *testing.T) {
	_, addr1 := testutil.CountingEcho(t)
	_, addr2 := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{})
	poolPing(t, p, addr1, 1)
	poolPing(t, p, addr1, 2)
	poolPing(t, p, addr2, 3)

	eps := p.EndpointStats()
	if len(eps) != 2 {
		t.Fatalf("EndpointStats has %d endpoints, want 2: %v", len(eps), eps)
	}
	if st := eps[addr1]; st.Dials != 1 || st.Reuses != 1 || st.Idle != 1 {
		t.Fatalf("endpoint %s stats %+v, want 1 dial, 1 reuse, 1 idle", addr1, st)
	}
	if st := eps[addr2]; st.Dials != 1 || st.Reuses != 0 {
		t.Fatalf("endpoint %s stats %+v, want 1 dial, 0 reuses", addr2, st)
	}
	agg := p.Stats()
	if agg.Dials != eps[addr1].Dials+eps[addr2].Dials || agg.Reuses != eps[addr1].Reuses+eps[addr2].Reuses {
		t.Fatalf("aggregate %+v does not sum endpoints %v", agg, eps)
	}
}

// TestPoolMetricsBackfill: counters accumulated before RegisterMetrics
// must appear in the registry, and keep counting after.
func TestPoolMetricsBackfill(t *testing.T) {
	_, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{})
	poolPing(t, p, addr, 1)
	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg)
	exp := reg.Export()
	if got := exp[`ides_pool_dials_total{endpoint="`+addr+`"}`]; got != 1 {
		t.Fatalf("backfilled dials = %v, want 1 (export: %v)", got, exp)
	}
	poolPing(t, p, addr, 2)
	exp = reg.Export()
	if got := exp[`ides_pool_reuses_total{endpoint="`+addr+`"}`]; got != 1 {
		t.Fatalf("post-registration reuses = %v, want 1", got)
	}
	if got := exp[`ides_pool_idle_conns{endpoint="`+addr+`"}`]; got != 1 {
		t.Fatalf("idle gauge = %v, want 1", got)
	}
}
