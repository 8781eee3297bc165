package simnet

import (
	"sync"
	"time"
)

// event is one arrival waiting in the scheduler's queue. Events fire in
// (at, seq) order, so arrivals due at the same instant keep their
// scheduling order — the property that makes a run's delivery sequence
// reproducible.
type event struct {
	at  time.Time
	seq uint64
	a   arrival
}

func (e *event) before(f *event) bool {
	if !e.at.Equal(f.at) {
		return e.at.Before(f.at)
	}
	return e.seq < f.seq
}

// scheduler is the network's central delivery engine: every packet
// and EOF passes through one ordered queue instead of per-connection
// sleeps. (The dial handshake does not: it delivers nothing, it only
// waits out a round trip on the dialer's own goroutine — see sleepCtx.)
// What it delivers is an arrival, a typed value it fires in place; no
// closure is built per packet. There is no standing goroutine — like
// transport.Pool's idle reaper, a single timer is armed for the
// earliest due event and dispatch runs in its callback, re-arming for
// the next. An arrival that is already due when it is scheduled, with
// nothing queued ahead of it, skips the queue and the timer: the
// scheduling goroutine becomes the dispatcher and fires it on the spot.
// Only one that must wait becomes an event, held by value in a binary
// heap whose backing array, like the dispatcher's batch buffer, is
// reused from packet to packet: memory is allocated only when the queue
// outgrows every earlier length, never per packet. A dedicated
// dispatching flag keeps at most one dispatcher running — timer-driven
// or inline — so the (at, seq) order is never raced away.
type scheduler struct {
	mu          sync.Mutex
	events      []event // a binary min-heap in (at, seq) order
	seq         uint64
	timer       *time.Timer
	dispatching bool
	closed      bool
	// due is the dispatcher's batch buffer, touched only by the
	// goroutine that holds the dispatching flag.
	due []arrival
}

// schedule delivers a at wall-clock time at (immediately when at is
// already past). The caller must hold no lock an arrival's fire takes:
// when at is already due, a — and any event that falls due while it
// fires — may be delivered on the caller's goroutine before schedule
// returns.
func (s *scheduler) schedule(at time.Time, a arrival) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	// Queued events all carry a smaller seq, so one with an equal at
	// still goes first: only a strictly later head lets this one through.
	if !s.dispatching && (len(s.events) == 0 || s.events[0].at.After(at)) && !at.After(time.Now()) {
		s.dispatching = true
		s.mu.Unlock()
		a.fire()
		s.mu.Lock()
		s.drainLocked()
		return
	}
	s.push(event{at: at, seq: s.seq, a: a})
	s.armLocked()
	s.mu.Unlock()
}

// push adds e to the heap. Callers hold s.mu.
func (s *scheduler) push(e event) {
	s.events = append(s.events, e)
	for i := len(s.events) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.events[i].before(&s.events[parent]) {
			break
		}
		s.events[i], s.events[parent] = s.events[parent], s.events[i]
		i = parent
	}
}

// pop removes the earliest event and returns its arrival. Callers hold
// s.mu.
func (s *scheduler) pop() arrival {
	h := s.events
	a, last := h[0].a, len(h)-1
	h[0] = h[last]
	h[last] = event{} // the backing array outlives the event; its packet must not
	h = h[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].before(&h[least]) {
			least = l
		}
		if r < len(h) && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	s.events = h
	return a
}

// armLocked points the timer at the earliest event. Callers hold s.mu.
func (s *scheduler) armLocked() {
	if s.closed || len(s.events) == 0 {
		return
	}
	d := time.Until(s.events[0].at)
	if d < 0 {
		d = 0
	}
	if s.timer == nil {
		s.timer = time.AfterFunc(d, s.dispatch)
	} else {
		s.timer.Reset(d)
	}
}

// dispatch is the timer callback: it drains all due events unless a
// dispatcher is already running, into whose loop an extra timer firing
// (possible around Reset races) folds.
func (s *scheduler) dispatch() {
	s.mu.Lock()
	if s.dispatching || s.closed {
		s.mu.Unlock()
		return
	}
	s.dispatching = true
	s.drainLocked()
}

// drainLocked fires all due events in order, then gives up the
// dispatching flag and re-arms the timer for the next future one. The
// caller holds s.mu and the dispatching flag; both are released.
func (s *scheduler) drainLocked() {
	for {
		due := s.due[:0]
		if len(s.events) > 0 { // an empty queue needs no clock read
			now := time.Now()
			for len(s.events) > 0 && !s.events[0].at.After(now) {
				due = append(due, s.pop())
			}
		}
		if len(due) == 0 {
			s.dispatching = false
			s.armLocked()
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		for i, a := range due {
			a.fire()
			due[i] = arrival{} // the buffer outlives the batch; the packet must not
		}
		s.mu.Lock()
		s.due = due
	}
}

// close drops all pending events and stops the timer. Scheduled
// deliveries that have not fired are lost — Network.Close resets every
// connection anyway, so nothing waits for them.
func (s *scheduler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.events = nil
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}
