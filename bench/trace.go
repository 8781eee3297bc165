package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. The bench records spans around the calls it makes into
// each layer; spans inside the program under test are a later change.
const (
	spOp      = "op"
	spEncode  = "wire.encode"
	spCall    = "transport.call"
	spDecode  = "wire.decode"
	spCheck   = "check"
	spRecover = "lifecycle.recover"
	spSolve   = "core.solve_host"
)

// traceStride is the sampling rate of the traced run: every
// traceStride-th op of a caller records its spans. A point-query
// workload does ~45k ops/s; tracing every op would hold millions of
// spans and write hundreds of MB. Untraced ops take no extra clock
// reads, so trace.overhead_ratio states the cost of the tracing that
// was actually done.
const traceStride = 16

// span is one timed interval. Spans of one op share Op; Parent is the
// index (within the same tracer) of the span that caused this one, -1
// for a root.
type span struct {
	Op      uint64
	Parent  int32
	Name    string
	StartNs int64 // since the tracer's epoch
	EndNs   int64
}

// tracer records the spans of one caller goroutine. It is not safe for
// concurrent use; every caller owns one. All methods are no-ops on a nil
// tracer, so workload code is identical in traced and untraced runs.
type tracer struct {
	epoch  time.Time
	caller int
	spans  []span
	open   []int32 // stack of open span indices
	op     uint64
	keep   bool
}

func newTracer(epoch time.Time, caller int) *tracer {
	return &tracer{epoch: epoch, caller: caller, spans: make([]span, 0, 1<<16)}
}

// startOp opens the parent span of op number seq if it is sampled.
func (t *tracer) startOp(seq uint64) {
	if t == nil {
		return
	}
	t.op = seq
	t.keep = seq%traceStride == 0
	t.begin(spOp)
}

// endOp closes whatever the op left open, the parent span last.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	for len(t.open) > 0 {
		t.end()
	}
	t.keep = false
}

// begin opens a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil || !t.keep {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{Op: t.op, Parent: parent, Name: name, StartNs: int64(time.Since(t.epoch))})
}

// forceOp records the current op even if it was not sampled, back-dating
// its parent span to the op's start: a rare, expensive event (a churn
// recovery) discovered mid-op must not be lost to sampling.
func (t *tracer) forceOp(start time.Time) {
	if t == nil || t.keep {
		return
	}
	t.keep = true
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{Op: t.op, Parent: -1, Name: spOp, StartNs: int64(start.Sub(t.epoch))})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || !t.keep || len(t.open) == 0 {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = int64(time.Since(t.epoch))
}

// selfTimes returns, per span name, total duration and total self time:
// a span's self time is its duration minus the part of its interval that
// its direct children cover (children clipped to the parent, overlaps
// merged).
func selfTimes(spans []span) (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i, s := range spans {
		dur := s.EndNs - s.StartNs
		if dur < 0 {
			continue // never closed
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		var covered int64
		cursor := s.StartNs
		for _, k := range kids {
			lo, hi := max(k[0], cursor), min(k[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		total[s.Name] += dur
		self[s.Name] += dur - covered
	}
	return total, self
}

// writeTrace dumps every tracer's spans as JSON lines.
func writeTrace(path, workload string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"workload":%q,"caller":%d,"op":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				workload, t.caller, s.Op, i, s.Parent, s.Name, s.StartNs, s.EndNs)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
