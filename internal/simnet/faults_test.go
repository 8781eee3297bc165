package simnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/topology"
)

func faultNetwork(t *testing.T, n int, cfg Config) *Network {
	t.Helper()
	topo, err := topology.Generate(topology.Config{Seed: 11, NumHosts: n})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(topo, DefaultNames(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

func mustHost(t *testing.T, nw *Network, name string) *Host {
	t.Helper()
	h, err := nw.Host(name)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// echoLoop accepts connections and echoes every read back until the
// listener closes.
func echoLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			buf := make([]byte, 256)
			for {
				n, err := c.Read(buf)
				if err != nil {
					return
				}
				if _, err := c.Write(buf[:n]); err != nil {
					return
				}
			}
		}(c)
	}
}

func TestPartitionCutsAndHealRestores(t *testing.T) {
	nw := faultNetwork(t, 6, Config{TimeScale: 1e-5, Seed: 3})
	h0 := mustHost(t, nw, "host-0")
	h1 := mustHost(t, nw, "host-1")
	h4 := mustHost(t, nw, "host-4")
	ln, err := h1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go echoLoop(ln)

	// Pre-partition: an established connection works.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := h0.DialContext(ctx, "simnet", "host-1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := nw.Partition("host-0", "host-5"); err != nil {
		t.Fatal(err)
	}

	// The established connection crossing the cut was reset.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 8)); err == nil {
		t.Fatal("read across a partition must fail")
	}

	// New dials and pings across the cut fail fast with unreachable, in
	// both directions: a cut is symmetric.
	if _, err := h0.DialContext(ctx, "simnet", "host-1"); !errors.Is(err, errUnreachable) {
		t.Fatalf("dial across partition: err = %v, want unreachable", err)
	}
	if _, err := h0.Ping(ctx, "host-4", 1); !errors.Is(err, errUnreachable) {
		t.Fatalf("ping across partition: err = %v, want unreachable", err)
	}
	if _, err := h4.DialContext(ctx, "simnet", "host-0"); !errors.Is(err, errUnreachable) {
		t.Fatalf("dial back across partition: err = %v, want unreachable", err)
	}
	if _, err := h4.Ping(ctx, "host-0", 1); !errors.Is(err, errUnreachable) {
		t.Fatalf("ping back across partition: err = %v, want unreachable", err)
	}

	// Traffic on the same side of the cut still flows.
	if _, err := h4.Ping(ctx, "host-1", 1); err != nil {
		t.Fatalf("ping within majority side: %v", err)
	}
	if _, err := h0.Ping(ctx, "host-5", 1); err != nil {
		t.Fatalf("ping within minority side: %v", err)
	}

	nw.Heal()
	if _, err := h0.Ping(ctx, "host-4", 1); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
	conn2, err := h0.DialContext(ctx, "simnet", "host-1")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	conn2.Close()
}

func TestSetLatencyScaleStretchesEveryLink(t *testing.T) {
	nw := faultNetwork(t, 4, Config{TimeScale: 1e-5, Seed: 3})
	h0 := mustHost(t, nw, "host-0")
	base, err := nw.GroundTruthRTT("host-0", "host-3")
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLatencyScale(1.5); err != nil {
		t.Fatal(err)
	}
	scaled, err := nw.GroundTruthRTT("host-0", "host-3")
	if err != nil {
		t.Fatal(err)
	}
	if want := base * 1.5; scaled < want*0.999 || scaled > want*1.001 {
		t.Fatalf("scaled RTT = %v, want %v", scaled, want)
	}
	got, err := h0.PingInstant("host-3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms := float64(got) / float64(time.Millisecond); ms < scaled*0.999 || ms > scaled*1.001 {
		t.Fatalf("ping after scale = %v, want %v", ms, scaled)
	}
	if err := nw.SetLatencyScale(0); err == nil {
		t.Fatal("non-positive scale must be rejected")
	}
}

func TestKillRefusesAndReviveRestores(t *testing.T) {
	nw := faultNetwork(t, 3, Config{TimeScale: 1e-5, Seed: 3})
	h0 := mustHost(t, nw, "host-0")
	h2 := mustHost(t, nw, "host-2")
	ln, err := h2.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go echoLoop(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := h0.DialContext(ctx, "simnet", "host-2")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := nw.Kill("host-2"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 8)); err == nil {
		t.Fatal("connection to a killed host must reset")
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, errConnReset) {
		t.Fatalf("write to a killed host: err = %v, want reset", err)
	}
	if _, err := h0.DialContext(ctx, "simnet", "host-2"); !errors.Is(err, errConnRefused) {
		t.Fatalf("dial to killed host: err = %v, want refused", err)
	}
	if _, err := h0.Ping(ctx, "host-2", 1); !errors.Is(err, errConnRefused) {
		t.Fatalf("ping to killed host: err = %v, want refused", err)
	}
	if _, err := h2.Ping(ctx, "host-0", 1); !errors.Is(err, errConnRefused) {
		t.Fatalf("ping from killed host: err = %v, want refused", err)
	}

	if err := nw.Revive("host-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := h0.Ping(ctx, "host-2", 1); err != nil {
		t.Fatalf("ping after revive: %v", err)
	}
	// The machine is back; the application re-listens.
	ln2, err := h2.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go echoLoop(ln2)
	conn2, err := h0.DialContext(ctx, "simnet", "host-2")
	if err != nil {
		t.Fatalf("dial after revive: %v", err)
	}
	conn2.Close()
}

func TestLossDelaysDeliveryByRTO(t *testing.T) {
	// LossRate 1: every packet is "lost" once and delivered one RTO
	// late; the connection still carries data (retransmission, not
	// corruption), and Ping errors out because every echo is lost.
	topo, err := topology.Generate(topology.Config{Seed: 11, NumHosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(topo, DefaultNames(3), Config{TimeScale: 1.0, Seed: 3, LossRate: 1, RTOMillis: 80})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	h0 := mustHost(t, nw, "host-0")
	h1 := mustHost(t, nw, "host-1")
	ln, err := h1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go echoLoop(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := h0.DialContext(ctx, "simnet", "host-1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// Round trip pays the base RTT plus 2x RTO (both directions lost).
	if elapsed := time.Since(start); elapsed < 160*time.Millisecond {
		t.Fatalf("lossy round trip took %v, want >= 2x RTO (160ms)", elapsed)
	}
	if _, err := h0.PingInstant("host-1", 3); err == nil {
		t.Fatal("ping with 100% loss must fail")
	}
}

// TestDeterministicMeasurementsAcrossRuns is the fabric's determinism
// guarantee: two networks with the same topology, seed and traffic
// order produce bit-identical measurement sequences, jitter and loss
// included.
func TestDeterministicMeasurementsAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		topo, err := topology.Generate(topology.Config{Seed: 21, NumHosts: 8})
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(topo, DefaultNames(8), Config{TimeScale: 1e-6, Seed: 9, JitterMean: 5, LossRate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		var out []time.Duration
		for i := 0; i < 8; i++ {
			h := mustHost(t, nw, fmt.Sprintf("host-%d", i))
			for j := 0; j < 8; j++ {
				if i == j {
					continue
				}
				rtt, err := h.PingInstant(fmt.Sprintf("host-%d", j), 4)
				if err != nil {
					out = append(out, -1)
					continue
				}
				out = append(out, rtt)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("measurement %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFaultsUnderConcurrentTraffic hammers the fabric with parallel
// echo traffic while partitions flap, latencies shift and hosts die —
// the -race exercise for the scheduler and fault paths.
func TestFaultsUnderConcurrentTraffic(t *testing.T) {
	nw := faultNetwork(t, 8, Config{TimeScale: 1e-6, Seed: 5, JitterMean: 2, LossRate: 0.05})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 4; i < 8; i++ {
		h := mustHost(t, nw, fmt.Sprintf("host-%d", i))
		ln, err := h.Listen()
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go echoLoop(ln)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := mustHost(t, nw, fmt.Sprintf("host-%d", i))
			target := fmt.Sprintf("host-%d", 4+i)
			buf := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				dctx, dcancel := context.WithTimeout(ctx, 300*time.Millisecond)
				conn, err := h.DialContext(dctx, "simnet", target)
				if err == nil {
					conn.SetDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
					if _, err := conn.Write([]byte("ping")); err == nil {
						conn.Read(buf) //nolint:errcheck
					}
					conn.Close()
				}
				h.PingInstant(target, 2) //nolint:errcheck
				dcancel()
			}
		}(i)
	}
	faults := []func(){
		func() { nw.Partition("host-0", "host-4") }, //nolint:errcheck
		func() { nw.Heal() },
		func() { nw.SetLatencyScale(1.4) },          //nolint:errcheck
		func() { nw.SetLatencyScale(1.0) },          //nolint:errcheck
		func() { nw.Kill("host-6") },                //nolint:errcheck
		func() { nw.Revive("host-6") },              //nolint:errcheck
		func() { nw.Partition("host-3", "host-7") }, //nolint:errcheck
		func() { nw.Heal() },
	}
	for round := 0; round < 30; round++ {
		faults[round%len(faults)]()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestSetReadDeadlineInterruptsBlockedRead: the rewrite's deadline
// contract — a deadline set while a Read is blocked takes effect, the
// behavior net.Conn implementations must provide and the seed simnet
// documented away.
func TestSetReadDeadlineInterruptsBlockedRead(t *testing.T) {
	nw := faultNetwork(t, 3, Config{TimeScale: 1e-5, Seed: 3})
	h0 := mustHost(t, nw, "host-0")
	h1 := mustHost(t, nw, "host-1")
	ln, err := h1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ln.Accept() //nolint:errcheck // hold open, never write
	conn, err := h0.DialContext(context.Background(), "simnet", "host-1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 8))
		done <- err
	}()
	// No deadline is set yet, so the read parks; then interrupt it.
	time.AfterFunc(50*time.Millisecond, func() {
		conn.SetReadDeadline(time.Now()) //nolint:errcheck
	})
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned nil after deadline interrupt")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SetReadDeadline did not interrupt the blocked read")
	}
}
