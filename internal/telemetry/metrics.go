// Package telemetry is the IDES observability subsystem: a
// dependency-free metrics registry exposed in Prometheus text format,
// and an append-only history store recording what the live system
// actually did — accepted measurements, fit/revision events, per-epoch
// error summaries — in a segmented binary log that cmd/ides-inspect can
// replay through the simnet harness for what-if analysis.
//
// # Metrics
//
// A Registry holds metric families: atomic counters, gauges and
// fixed-bucket histograms, plus function-backed variants that read an
// existing counter set (transport.PoolStats, lifecycle.Stats) at scrape
// time. Instruments are nil-safe: every method on a nil *Counter,
// *Gauge or *Histogram is a no-op, so instrumented code paths need no
// "is telemetry configured?" branches — constructing instruments from a
// nil *Registry yields nil instruments and the hot path stays clean.
//
// WritePrometheus renders the registry in the Prometheus text
// exposition format; Handler and StartServer expose it over HTTP for
// the binaries' opt-in -metrics-addr listener.
package telemetry

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DurationBuckets are the default latency histogram bounds, in seconds:
// 10µs to 10s in a 1-2.5-5 ladder, covering everything from pooled
// point queries (~25µs) to full batch refits (hundreds of ms).
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default count histogram bounds (batch sizes, k):
// 1 to 100k in a 1-2.5-5 ladder.
var SizeBuckets = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000, 100000,
}

// metricType is the Prometheus family type.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing counter. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket catches the rest. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // len(upper)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	u := append([]float64(nil), buckets...)
	sort.Float64s(u)
	return &Histogram{upper: u, buckets: make([]atomic.Uint64, len(u)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the Prometheus convention for
// latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples observed (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// family is one metric family: a name, help text, type and the child
// instruments keyed by label value ("" for unlabelled families).
type family struct {
	name, help string
	typ        metricType
	label      string // label name, "" when unlabelled
	buckets    []float64

	mu    sync.Mutex
	insts map[string]any // *Counter | *Gauge | *Histogram | func() float64
	order []string       // label values in first-seen order
}

func (f *family) child(value string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if in, ok := f.insts[value]; ok {
		return in
	}
	in := make()
	f.insts[value] = in
	f.order = append(f.order, value)
	return in
}

// Registry is a set of metric families. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use, and
// every constructor is safe on a nil *Registry — it returns a nil
// instrument whose methods are no-ops, so callers can thread an
// optional registry through without branching.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty Registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register returns the family with the given shape, creating it on
// first use. Re-registering an existing name with a different type,
// label or bucket layout panics: that is a programming error, and
// serving two shapes under one name would corrupt the exposition.
func (r *Registry) register(name, help string, typ metricType, label string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || f.label != label {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, label: label, buckets: buckets, insts: make(map[string]any)}
	r.fams[name] = f
	return f
}

// Counter returns the counter named name, creating it on first use.
// Nil-safe: a nil Registry returns a nil (no-op) Counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, counterType, "", nil)
	return f.child("", func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, gaugeType, "", nil)
	return f.child("", func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram named name, creating it on first use.
// buckets are upper bounds (nil applies DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	f := r.register(name, help, histogramType, "", buckets)
	return f.child("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for components that already keep their own atomic
// counters (transport.PoolStats, lifecycle.Stats). Re-registering the
// same name replaces the function, so a sequence of short-lived
// components (benchmark runs) can each claim the name.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, counterType, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.insts[""]; !ok {
		f.order = append(f.order, "")
	}
	f.insts[""] = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. Same replacement semantics as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, gaugeType, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.insts[""]; !ok {
		f.order = append(f.order, "")
	}
	f.insts[""] = fn
}

// CounterVec is a family of counters partitioned by one label.
type CounterVec struct {
	fam *family
}

// CounterVec returns the labelled counter family named name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, counterType, label, nil)}
}

// With returns the child counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.child(value, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a family of gauges partitioned by one label.
type GaugeVec struct {
	fam *family
}

// GaugeVec returns the labelled gauge family named name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, gaugeType, label, nil)}
}

// With returns the child gauge for the label value.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.child(value, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a family of histograms partitioned by one label.
type HistogramVec struct {
	fam *family
}

// HistogramVec returns the labelled histogram family named name.
// buckets are upper bounds shared by every child (nil applies
// DurationBuckets).
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{fam: r.register(name, help, histogramType, label, buckets)}
}

// With returns the child histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.child(value, func() any { return newHistogram(v.fam.buckets) }).(*Histogram)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and
// children by label value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		r.mu.Lock()
		f := r.fams[name]
		r.mu.Unlock()
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	values := append([]string(nil), f.order...)
	insts := make([]any, len(values))
	for i, v := range values {
		insts[i] = f.insts[v]
	}
	f.mu.Unlock()
	sort.Sort(&childSort{values, insts})
	for i, value := range values {
		labels := ""
		if f.label != "" {
			labels = fmt.Sprintf("{%s=%q}", f.label, escapeLabel(value))
		}
		switch in := insts[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labels, in.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(in.Value()))
		case func() float64:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(in()))
		case *Histogram:
			in.renderInto(b, f.name, f.label, value)
		}
	}
}

func (h *Histogram) renderInto(b *strings.Builder, name, label, value string) {
	cum := uint64(0)
	for i, up := range h.upper {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(label, value, formatFloat(up)), cum)
	}
	cum += h.buckets[len(h.upper)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(label, value, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, plainLabels(label, value), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, plainLabels(label, value), h.Count())
}

func plainLabels(label, value string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf("{%s=%q}", label, escapeLabel(value))
}

func bucketLabels(label, value, le string) string {
	if label == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("{%s=%q,le=%q}", label, escapeLabel(value), le)
}

// childSort sorts family children by label value, keeping the
// instrument slice aligned.
type childSort struct {
	values []string
	insts  []any
}

func (s *childSort) Len() int           { return len(s.values) }
func (s *childSort) Less(i, j int) bool { return s.values[i] < s.values[j] }
func (s *childSort) Swap(i, j int) {
	s.values[i], s.values[j] = s.values[j], s.values[i]
	s.insts[i], s.insts[j] = s.insts[j], s.insts[i]
}

// Export flattens the registry into sample name → value, the shape
// bench/ reads its server.* layers from. Counters and gauges export
// under their name (plus {label="value"} when labelled); histograms
// export their _count and _sum.
func (r *Registry) Export() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		for value, in := range f.insts {
			labels := ""
			if f.label != "" {
				labels = fmt.Sprintf("{%s=%q}", f.label, escapeLabel(value))
			}
			switch in := in.(type) {
			case *Counter:
				out[f.name+labels] = float64(in.Value())
			case *Gauge:
				out[f.name+labels] = in.Value()
			case func() float64:
				out[f.name+labels] = in()
			case *Histogram:
				out[f.name+"_count"+labels] = float64(in.Count())
				out[f.name+"_sum"+labels] = in.Sum()
			}
		}
		f.mu.Unlock()
	}
	return out
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck
	})
}

// StartServer serves reg's /metrics endpoint on addr in the background
// and returns the bound listener; closing it stops the server. This is
// the implementation behind the binaries' -metrics-addr flag.
func StartServer(addr string, reg *Registry, logger *log.Logger) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		err := srv.Serve(ln)
		// Closing the returned listener is the documented shutdown path,
		// so the resulting ErrClosed is not worth a log line.
		if err != nil && err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) && logger != nil {
			logger.Printf("telemetry: metrics server: %v", err)
		}
	}()
	return ln, nil
}

// formatFloat renders a sample value: integral floats without an
// exponent, everything else in Go's shortest representation.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	return s // %q quoting at the call sites escapes quotes and backslashes
}
