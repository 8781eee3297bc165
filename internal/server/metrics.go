package server

import (
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
)

// serverMetrics bundles the server's telemetry instruments. All methods
// are no-ops on a nil receiver, so the request path stays branch-light
// when Config.Metrics is unset (newServerMetrics returns nil then).
type serverMetrics struct {
	reportsAccepted *telemetry.Counter
	reportsRejected *telemetry.Counter
	fitSeconds      *telemetry.Histogram
	revSeconds      *telemetry.Histogram
	fitErrors       *telemetry.Counter
	drift           *telemetry.Gauge
}

// newServerMetrics registers the server's metric families on reg and
// bridges the components that already keep their own counters — the
// model refitter, the host directory, and the replication tier — as
// scrape-time functions. Registration is role-aware: model-lifecycle
// families exist only where the refitter does (leaders), and each side
// of the replication tier exports its own counters. Called after the
// role components exist; returns nil when reg is nil.
func newServerMetrics(reg *telemetry.Registry, s *Server) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		reportsAccepted: reg.Counter("ides_server_reports_accepted_total",
			"Landmark measurements accepted into the solver."),
		reportsRejected: reg.Counter("ides_server_reports_rejected_total",
			"Report entries dropped: unknown landmark, self-pair, or an RTT outside [0, 1e6] ms."),
	}
	reg.GaugeFunc("ides_server_hosts",
		"Live registered hosts in the directory.",
		func() float64 { return float64(s.qs.dir.Len()) })
	reg.GaugeFunc("ides_model_epoch",
		"Epoch of the served model (0 before the first fit or replicated model).",
		func() float64 { return float64(s.qs.Epoch()) })
	reg.GaugeFunc("ides_model_rev",
		"Revision of the served model within its epoch.",
		func() float64 { return float64(s.qs.Rev()) })
	if p := s.refit; p != nil {
		m.fitSeconds = reg.Histogram("ides_model_fit_seconds",
			"Full batch fit latency.", nil)
		m.revSeconds = reg.Histogram("ides_model_revision_seconds",
			"Incremental revision (SGD apply) latency.", nil)
		m.fitErrors = reg.Counter("ides_model_fit_errors_total",
			"Failed full-fit attempts.")
		m.drift = reg.Gauge("ides_model_drift",
			"Solver drift since the epoch's full fit, as a fraction of the seeded factors' norm.")
		reg.CounterFunc("ides_model_fits_total",
			"Successful full fits.",
			func() float64 { return float64(p.Stats().Fits) })
		reg.CounterFunc("ides_model_revisions_total",
			"Incremental revisions published.",
			func() float64 { return float64(p.Stats().Revisions) })
		reg.CounterFunc("ides_model_deltas_total",
			"Measurement deltas handed to the solver.",
			func() float64 { return float64(p.Stats().Deltas) })
		reg.GaugeFunc("ides_model_delta_queue_depth",
			"Measurement deltas queued for the solver.",
			func() float64 { return float64(p.QueueDepth()) })
	}
	if r := s.repl; r != nil {
		reg.GaugeFunc("ides_repl_subscribers",
			"Followers currently subscribed to the replication stream.",
			func() float64 { return float64(r.subscribers()) })
		reg.CounterFunc("ides_repl_frames_sent_total",
			"Replication frames streamed to followers (frames, not writes).",
			func() float64 { return float64(r.framesSent.Load()) })
		reg.CounterFunc("ides_repl_bytes_sent_total",
			"Replication stream bytes written to followers.",
			func() float64 { return float64(r.bytesSent.Load()) })
		r.lag = reg.GaugeVec("ides_repl_follower_lag_revs",
			"Estimated revisions between the published model and each follower's stream position.",
			"follower")
	}
	if f := s.follower; f != nil {
		reg.GaugeFunc("ides_repl_connected",
			"Whether the replication stream to the leader is live (1) or down (0).",
			func() float64 {
				if f.connected.Load() {
					return 1
				}
				return 0
			})
		reg.CounterFunc("ides_repl_frames_applied_total",
			"Replication stream frames consumed from the leader.",
			func() float64 { return float64(f.framesApplied.Load()) })
		reg.CounterFunc("ides_repl_bytes_applied_total",
			"Replication stream bytes consumed from the leader.",
			func() float64 { return float64(f.bytesApplied.Load()) })
		reg.CounterFunc("ides_repl_reconnects_total",
			"Replication stream re-establishments after the initial subscription.",
			func() float64 { return float64(f.reconnects.Load()) })
	}
	return m
}

func (m *serverMetrics) observeReport(accepted, rejected int) {
	if m == nil {
		return
	}
	m.reportsAccepted.Add(uint64(accepted))
	m.reportsRejected.Add(uint64(rejected))
}

// observeEvent feeds one lifecycle transition into the instruments.
func (m *serverMetrics) observeEvent(ev lifecycle.Event) {
	if m == nil {
		return
	}
	switch ev.Kind {
	case telemetry.EventFit:
		m.fitSeconds.ObserveDuration(ev.Duration)
	case telemetry.EventRevision:
		m.revSeconds.ObserveDuration(ev.Duration)
	case telemetry.EventFitError:
		m.fitErrors.Inc()
	}
	m.drift.Set(ev.Drift)
}

// onModelEvent is the refitter's OnEvent sink: it updates the model
// instruments and appends the transition — plus, at full fits, the
// per-epoch error summary — to the history log. Runs on the refitter's
// loop.
func (s *Server) onModelEvent(ev lifecycle.Event) {
	s.metrics.observeEvent(ev)
	h := s.history
	if h == nil {
		return
	}
	now := h.Now()
	if err := h.Append(&telemetry.EventRecord{
		TimeUnixNanos: now,
		Kind:          ev.Kind,
		Epoch:         ev.Epoch,
		Rev:           ev.Rev,
		DurationNanos: int64(ev.Duration),
		Drift:         ev.Drift,
		QueueDepth:    ev.QueueDepth,
	}); err != nil {
		s.logf("history: recording %v event: %v", ev.Kind, err)
	}
	if ev.Kind == telemetry.EventFit && len(ev.Errors) > 0 {
		sum := stats.Summarize(ev.Errors)
		if err := h.Append(&telemetry.EpochSummaryRecord{
			TimeUnixNanos: now,
			Epoch:         ev.Epoch,
			Rev:           ev.Rev,
			Samples:       sum.N,
			MeanAbsRel:    sum.Mean,
			MedianAbsRel:  sum.Median,
			P90AbsRel:     sum.P90,
			MaxAbsRel:     sum.Max,
		}); err != nil {
			s.logf("history: recording epoch summary: %v", err)
		}
	}
}

// recordReports appends the accepted measurement deltas to the history
// log, stamped with one arrival time per report frame.
func (s *Server) recordReports(accepted []solve.Delta) {
	h := s.history
	if h == nil || len(accepted) == 0 {
		return
	}
	now := h.Now()
	for _, d := range accepted {
		if err := h.Append(&telemetry.ReportRecord{
			TimeUnixNanos: now,
			From:          d.From,
			To:            d.To,
			Millis:        d.Millis,
		}); err != nil {
			s.logf("history: recording report: %v", err)
			return
		}
	}
}
