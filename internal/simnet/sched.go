package simnet

import (
	"container/heap"
	"sync"
	"time"
)

// event is one scheduled delivery. Events fire in (at, seq) order, so
// deliveries due at the same instant keep their scheduling order — the
// property that makes a run's delivery sequence reproducible.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// scheduler is the network's central delivery engine: every packet
// and EOF passes through one ordered queue instead of per-connection
// sleeps. (The dial handshake does not: it delivers nothing, it only
// waits out a round trip on the dialer's own goroutine — see sleepCtx.)
// There is no standing goroutine — like transport.Pool's idle reaper, a
// single timer is armed for the earliest due event and dispatch runs in
// its callback, re-arming for the next. An event that is already due
// when it is scheduled, with nothing queued ahead of it, skips the
// queue and the timer: the scheduling goroutine becomes the dispatcher
// and fires it on the spot. A dedicated dispatching flag keeps at most
// one dispatcher running — timer-driven or inline — so the (at, seq)
// order is never raced away.
type scheduler struct {
	mu          sync.Mutex
	events      eventHeap
	seq         uint64
	timer       *time.Timer
	dispatching bool
	closed      bool
	// due is the dispatcher's batch buffer, touched only by the
	// goroutine that holds the dispatching flag.
	due []*event
}

// schedule queues fn to run at wall-clock time at (immediately when at
// is already past). fn must be quick and must not call back into the
// scheduler. The caller must hold no lock a scheduled fn takes: when at
// is already due, fn — and any event that falls due while it runs — may
// run on the caller's goroutine before schedule returns.
func (s *scheduler) schedule(at time.Time, fn func()) {
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
		fn()
		s.mu.Lock()
		s.drainLocked()
		return
	}
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
	s.armLocked()
	s.mu.Unlock()
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
		now := time.Now()
		due := s.due[:0]
		for len(s.events) > 0 && !s.events[0].at.After(now) {
			due = append(due, heap.Pop(&s.events).(*event))
		}
		if len(due) == 0 {
			s.dispatching = false
			s.armLocked()
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		for i, e := range due {
			e.fn()
			due[i] = nil // the buffer outlives the batch; the packet fn holds must not
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
