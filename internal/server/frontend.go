package server

import (
	"context"
	"fmt"
	"net"

	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// This file is the network front-end: the server's adapter onto the
// shared frame server (transport.Serve) and the dispatch table that
// routes each request to the read side (QueryService), the write side
// (handleReport, or the leader-forwarding path on followers), or the
// replication tier (Subscribe upgrades the connection to a stream).

// Serve accepts and handles connections on ln until ctx is cancelled or
// the listener fails. It closes ln and every live connection on
// cancellation and waits for in-flight connections to finish.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return transport.Serve(ctx, ln, transport.ServeConfig{
		Handler:        s.dispatchTo,
		RequestTimeout: s.cfg.RequestTimeout,
		IdleTimeout:    s.cfg.IdleTimeout,
		Takeover:       s.takeover,
		Metrics:        s.frames,
		Logf:           s.logf,
	})
}

// takeover hands a lockstep connection that sent Subscribe to the
// replication tier: from there the server pushes replication frames
// until either side goes away.
func (s *Server) takeover(ctx context.Context, conn net.Conn, t wire.MsgType, payload []byte) bool {
	if t != wire.TypeSubscribe {
		return false
	}
	s.serveSubscriber(ctx, conn, payload)
	return true
}

// Handle handles one request and returns the response frame: the
// dispatch a connection reaches, in its allocate-per-call form, for
// in-process callers (harness.Replay feeds a leader recorded report
// frames through it) and tests.
func (s *Server) Handle(t wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	return s.dispatchTo(t, payload, nil)
}

// dispatchTo handles one request, appending the response payload to dst.
// Handlers own dst for the duration of the call and must return a slice
// based on it (possibly grown), so the connection loop can recycle one
// buffer across requests. The returned payload must not alias the
// request payload: the read scratch is reused before the response is
// framed on some paths.
func (s *Server) dispatchTo(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	switch t {
	case wire.TypeGetInfo:
		return s.qs.handleGetInfo(dst)
	case wire.TypeGetModel:
		return s.handleGetModel(dst)
	case wire.TypeReportRTT:
		return s.handleReport(payload, dst)
	case wire.TypeRegisterHost:
		if s.follower != nil {
			return s.follower.forwardRegister(payload, dst)
		}
		return s.qs.handleRegister(payload, dst)
	case wire.TypeGetVectors:
		return s.qs.handleGetVectors(payload, dst)
	case wire.TypeQueryDist:
		return s.qs.handleQueryDist(payload, dst)
	case wire.TypeQueryBatch:
		return s.qs.handleQueryBatch(payload, dst)
	case wire.TypeQueryKNN:
		return s.qs.handleQueryKNN(payload, dst)
	case wire.TypeSubscribe:
		// Reached in-process and on multiplexed streams: a lockstep
		// connection is taken over before dispatch, and completion-order
		// mux writes cannot carry the strictly ordered stream.
		return wire.AppendError(dst, wire.CodeBadRequest, "Subscribe requires a dedicated lockstep connection")
	default:
		return wire.AppendError(dst, wire.CodeUnknownType, fmt.Sprintf("unhandled message type %v", t))
	}
}

// handleGetModel serves the current model, waiting for a first one when
// none exists yet — for a fit run by the refitter goroutine on a leader,
// or for the replication stream to deliver one on a follower. Never
// blocks once any generation has been installed. The reply is the bytes
// Install encoded, so a follower answers with its leader's payload.
func (s *Server) handleGetModel(dst []byte) (wire.MsgType, []byte) {
	st := s.qs.served()
	if st == nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		if s.refit != nil {
			if _, err := s.refit.Ready(ctx); err != nil {
				return wire.AppendError(dst, wire.CodeModelNotFit, err.Error())
			}
		} else if err := s.qs.waitReady(ctx); err != nil {
			return wire.AppendError(dst, wire.CodeModelNotFit, err.Error())
		}
		if st = s.qs.served(); st == nil {
			return wire.AppendError(dst, wire.CodeModelNotFit, "no model published")
		}
	}
	return wire.TypeModel, append(dst, st.model...)
}

// handleReport is the write side: relayed to the leader on a follower;
// on a leader, validated — lmIndex is immutable after New, so that takes
// no lock — and the accepted measurements queued for the solver. The
// refitter applies them off the request path: the batch solver just
// records them ahead of the next full fit, the SGD solver also folds
// them into the model at O(d) per measurement — either way no caller
// ever waits on a factorization.
func (s *Server) handleReport(payload, dst []byte) (wire.MsgType, []byte) {
	if s.follower != nil {
		return s.follower.forward(wire.TypeReportRTT, payload, dst)
	}
	rep, err := wire.DecodeReportRTT(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	from, ok := s.lmIndex[rep.From]
	if !ok {
		return wire.AppendError(dst, wire.CodeNotLandmark, fmt.Sprintf("unknown landmark %q", rep.From))
	}
	accepted := make([]solve.Delta, 0, len(rep.Entries))
	for _, e := range rep.Entries {
		to, ok := s.lmIndex[e.To]
		if !ok || to == from || !solve.ValidRTT(e.RTTMillis) {
			continue
		}
		accepted = append(accepted, solve.Delta{From: from, To: to, Millis: e.RTTMillis})
	}
	s.metrics.observeReport(len(accepted), len(rep.Entries)-len(accepted))
	if len(accepted) > 0 {
		s.refit.Deltas(accepted)
		s.recordReport(rep.From, accepted)
	}
	return wire.TypeAck, dst
}
