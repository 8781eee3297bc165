package simnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
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

// TestSchedulerKeepsOrderThroughInlinePath: an event already due when
// scheduled fires on the scheduling goroutine, and whatever mix of due
// and future, equal and unequal times is scheduled around it still
// fires in (at, seq) order — the inline dispatcher drains what queued
// up behind it exactly as the timer-driven one does.
func TestSchedulerKeepsOrderThroughInlinePath(t *testing.T) {
	s := &scheduler{}
	defer s.close()
	var mu sync.Mutex
	var order []string
	note := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	fired := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), order...)
	}
	base := time.Now()

	// On an idle scheduler a due event runs before schedule returns.
	s.schedule(base.Add(-time.Second), note("idle"))
	if got := fired(); !reflect.DeepEqual(got, []string{"idle"}) {
		t.Fatalf("a due event on an idle scheduler did not fire inline: %v", got)
	}

	// Park an inline dispatcher inside its event and schedule behind it.
	started, release := make(chan struct{}), make(chan struct{})
	gateDone := make(chan struct{})
	go func() {
		defer close(gateDone)
		s.schedule(base.Add(-time.Second), func() {
			note("gate")()
			close(started)
			<-release
		})
	}()
	<-started
	wFired, eFired := make(chan struct{}), make(chan struct{})
	future := time.Now().Add(300 * time.Millisecond)
	s.schedule(base, note("x"))                               // due
	s.schedule(base.Add(-10*time.Millisecond), note("y"))     // due, earlier than x
	s.schedule(base.Add(-10*time.Millisecond), note("z"))     // due, same instant as y, scheduled later
	s.schedule(future, func() { note("w")(); close(wFired) }) // not due
	s.schedule(base, note("v"))                               // due, same instant as x, scheduled later
	if got := fired(); !reflect.DeepEqual(got, []string{"idle", "gate"}) {
		t.Fatalf("events fired past a running dispatcher: %v", got)
	}
	close(release)
	<-gateDone // the gate's goroutine drains everything due before schedule returns
	if got := fired(); !reflect.DeepEqual(got, []string{"idle", "gate", "y", "z", "x", "v"}) {
		t.Fatalf("drain order %v, want y z x v after the gate", got)
	}

	// With w queued for later: a due event ahead of it goes inline, one
	// at w's own instant waits its turn behind w.
	s.schedule(future, func() { note("e")(); close(eFired) })
	s.schedule(time.Now(), note("d"))
	if got := fired(); got[len(got)-1] != "d" {
		t.Fatalf("a due event behind nothing earlier did not fire inline: %v", got)
	}
	<-wFired
	<-eFired
	want := []string{"idle", "gate", "y", "z", "x", "v", "d", "w", "e"}
	if got := fired(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
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
	if err := nw.SetLatency("host-0", "host-1", 150); err != nil { // 150 ms of wall clock each way
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
