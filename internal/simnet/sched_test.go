package simnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// connPair dials b from a and returns both ends of the connection.
func connPair(t *testing.T, nw *Network, a, b string) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := mustHost(t, nw, b).Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	dialed, err = mustHost(t, nw, a).DialContext(context.Background(), "simnet", b)
	if err != nil {
		t.Fatal(err)
	}
	accepted = <-got
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// TestSchedulerKeepsOrderThroughInlinePath: an arrival already due
// when scheduled fires on the scheduling goroutine, and whatever mix of
// due and future, equal and unequal times is scheduled around it still
// lands in (at, seq) order — the inline dispatcher drains what queued
// up behind it exactly as the timer-driven one does.
func TestSchedulerKeepsOrderThroughInlinePath(t *testing.T) {
	nw := faultNetwork(t, 3, Config{TimeScale: 1e-6, Seed: 3})
	w, _ := connPair(t, nw, "host-0", "host-1")
	src := w.(*conn)
	s := &scheduler{}
	defer s.close()
	pkt := func(name string) arrival { return arrival{src, []byte(name)} }
	// landed lists the packets in the receiving inbox, in order.
	landed := func() []string {
		in := src.out
		in.mu.Lock()
		defer in.mu.Unlock()
		var got []string
		for _, p := range in.queue[in.head:] {
			got = append(got, string(p))
		}
		return got
	}
	waitLanded := func(n int) {
		for end := time.Now().Add(5 * time.Second); len(landed()) < n && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}
	base := time.Now()

	// On an idle scheduler a due arrival lands before schedule returns.
	s.schedule(base.Add(-time.Second), pkt("idle"))
	if got := landed(); !reflect.DeepEqual(got, []string{"idle"}) {
		t.Fatalf("a due arrival on an idle scheduler did not fire inline: %v", got)
	}

	// Park an inline dispatcher inside its arrival and schedule behind
	// it: a packet asks the network whether its link is cut before it
	// lands, so holding the network's lock holds the dispatcher there.
	nw.mu.Lock()
	gateDone := make(chan struct{})
	go func() {
		defer close(gateDone)
		s.schedule(base.Add(-time.Second), pkt("gate"))
	}()
	for dispatching := false; !dispatching; {
		time.Sleep(time.Millisecond)
		s.mu.Lock()
		dispatching = s.dispatching
		s.mu.Unlock()
	}
	future := time.Now().Add(300 * time.Millisecond)
	s.schedule(base, pkt("x"))                           // due
	s.schedule(base.Add(-10*time.Millisecond), pkt("y")) // due, earlier than x
	s.schedule(base.Add(-10*time.Millisecond), pkt("z")) // due, same instant as y, scheduled later
	s.schedule(future, pkt("w"))                         // not due
	s.schedule(base, pkt("v"))                           // due, same instant as x, scheduled later
	if got := landed(); !reflect.DeepEqual(got, []string{"idle"}) {
		t.Fatalf("arrivals landed past a running dispatcher: %v", got)
	}
	nw.mu.Unlock()
	<-gateDone // the gate's goroutine drains everything due before schedule returns
	if got := landed(); !reflect.DeepEqual(got, []string{"idle", "gate", "y", "z", "x", "v"}) {
		t.Fatalf("drain order %v, want y z x v after the gate", got)
	}

	// With w queued for later: a due arrival ahead of it goes inline,
	// one at w's own instant waits its turn behind w.
	s.schedule(future, pkt("e"))
	s.schedule(time.Now(), pkt("d"))
	if got := landed(); got[len(got)-1] != "d" {
		t.Fatalf("a due arrival behind nothing earlier did not fire inline: %v", got)
	}
	want := []string{"idle", "gate", "y", "z", "x", "v", "d", "w", "e"}
	waitLanded(len(want))
	if got := landed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("landed %v, want %v", got, want)
	}
}

// TestSchedulerDrainsQueueInOrder: arrivals that queue up behind a
// parked dispatcher, at a few shared instants in random order, land
// sorted by instant and, within one instant, in scheduling order.
func TestSchedulerDrainsQueueInOrder(t *testing.T) {
	nw := faultNetwork(t, 3, Config{TimeScale: 1e-6, Seed: 3})
	w, _ := connPair(t, nw, "host-0", "host-1")
	src := w.(*conn)
	s := &scheduler{}
	defer s.close()
	nw.mu.Lock()
	gateDone := make(chan struct{})
	base := time.Now()
	go func() {
		defer close(gateDone)
		s.schedule(base.Add(-time.Hour), arrival{src, []byte{0, 0}})
	}()
	for dispatching := false; !dispatching; {
		time.Sleep(time.Millisecond)
		s.mu.Lock()
		dispatching = s.dispatching
		s.mu.Unlock()
	}
	rng := rand.New(rand.NewSource(1))
	type key struct{ at, seq int }
	want := []key{{-1, 0}}
	for seq := 1; seq <= 300; seq++ {
		at := rng.Intn(7)
		want = append(want, key{at, seq})
		s.schedule(base.Add(time.Duration(at-10)*time.Millisecond), arrival{src, []byte{byte(at), byte(seq), byte(seq >> 8)}})
	}
	nw.mu.Unlock()
	<-gateDone
	slices.SortStableFunc(want, func(a, b key) int { return a.at - b.at })
	in := src.out
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.queue)-in.head != len(want) {
		t.Fatalf("%d arrivals landed, want %d", len(in.queue)-in.head, len(want))
	}
	for i, p := range in.queue[in.head:] {
		if i > 0 && (int(p[0]) != want[i].at || int(p[1])|int(p[2])<<8 != want[i].seq) {
			t.Fatalf("arrival %d is (at %d, seq %d), want (%d, %d)", i, p[0], int(p[1])|int(p[2])<<8, want[i].at, want[i].seq)
		}
	}
}

// TestConcurrentWritersKeepPerConnOrder: many connections on one
// network written concurrently at a TimeScale where most packets are
// due on arrival, so inline dispatchers and the timer-driven one keep
// handing the queue to each other. Every stream arrives complete and
// in order. Run under -race.
func TestConcurrentWritersKeepPerConnOrder(t *testing.T) {
	nw := faultNetwork(t, 9, Config{TimeScale: 1e-6, Seed: 5})
	const conns, msgs = 8, 400
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		w, r := connPair(t, nw, "host-0", DefaultNames(9)[i+1])
		wg.Add(2)
		go func() {
			defer wg.Done()
			var b [4]byte
			for m := uint32(0); m < msgs; m++ {
				binary.BigEndian.PutUint32(b[:], m)
				if _, err := w.Write(b[:]); err != nil {
					t.Errorf("conn %d write %d: %v", i, m, err)
					return
				}
			}
			w.Close()
		}()
		go func() {
			defer wg.Done()
			var b [4]byte
			for m := uint32(0); m < msgs; m++ {
				if _, err := io.ReadFull(r, b[:]); err != nil {
					t.Errorf("conn %d read %d: %v", i, m, err)
					return
				}
				if got := binary.BigEndian.Uint32(b[:]); got != m {
					t.Errorf("conn %d: message %d arrived in slot %d", i, got, m)
					return
				}
			}
			if _, err := r.Read(b[:]); err != io.EOF {
				t.Errorf("conn %d: %v after the last message, want EOF", i, err)
			}
		}()
	}
	wg.Wait()
}

// TestPartitionAfterWriteEatsPacketInFlight: only a packet that is due
// may be delivered on the writer's goroutine. One with its propagation
// delay still ahead of it sits in the queue, and a partition that lands
// before it is due eats it: the blocked reader sees the reset and not a
// byte of the data, also after the cut is healed and the delay is over.
func TestPartitionAfterWriteEatsPacketInFlight(t *testing.T) {
	nw := faultNetwork(t, 3, Config{TimeScale: 1, Seed: 3})
	if err := nw.SetLatencyScale(150 / nw.topo.OneWay(0, 1)); err != nil { // 150 ms of wall clock host-0 → host-1
		t.Fatal(err)
	}
	w, r := connPair(t, nw, "host-0", "host-1")
	type result struct {
		n   int
		err error
	}
	read := make(chan result, 1)
	go func() {
		n, err := r.Read(make([]byte, 16))
		read <- result{n, err}
	}()
	if _, err := w.Write([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := nw.Partition("host-0"); err != nil {
		t.Fatal(err)
	}
	if got := <-read; got.n != 0 || got.err == nil {
		t.Fatalf("read across the cut returned %d bytes, err %v; want the reset and no data", got.n, got.err)
	}
	nw.Heal()
	time.Sleep(200 * time.Millisecond)                       // past the packet's due time
	r.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	if n, err := r.Read(make([]byte, 16)); n != 0 || err == nil {
		t.Fatalf("read after heal returned %d bytes, err %v; the eaten packet came back", n, err)
	}
}

// TestReadDeadlineFiresAfterTimerReuse: deadline waits draw their timer
// from a shared pool. Whether the last user let it fire or stopped it
// early, the next wait gets exactly its own deadline — a read that
// should time out does, no sooner than asked, and a read whose data is
// on the way is not cut short by a previous wait's tick.
func TestReadDeadlineFiresAfterTimerReuse(t *testing.T) {
	nw := faultNetwork(t, 3, Config{TimeScale: 1e-6, Seed: 3})
	w, r := connPair(t, nw, "host-0", "host-1")
	buf := make([]byte, 8)
	for i := 0; i < 50; i++ {
		// Timer fires: nothing to read.
		const wait = 2 * time.Millisecond
		start := time.Now()
		r.SetReadDeadline(start.Add(wait)) //nolint:errcheck
		if n, err := r.Read(buf); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("iteration %d: idle read returned %d bytes, err %v; want a timeout", i, n, err)
		}
		if el := time.Since(start); el < wait {
			t.Fatalf("iteration %d: read timed out after %v, before its %v deadline", i, el, wait)
		}
		// Timer stopped early: the data beats a generous deadline.
		r.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
		go func() {
			time.Sleep(200 * time.Microsecond) // let the reader park on its timer first
			w.Write([]byte{byte(i)})           //nolint:errcheck
		}()
		if n, err := r.Read(buf); n != 1 || err != nil || buf[0] != byte(i) {
			t.Fatalf("iteration %d: read under a generous deadline returned %d bytes (%v), err %v", i, n, buf[:n], err)
		}
	}
}
