package server

import (
	"context"
	"fmt"
	"net"

	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// This file is the network front-end: the server's adapter onto the
// shared frame server (transport.Serve) and the dispatch table that
// routes each request to the read side (QueryService), the write side
// (ModelPipeline, or the leader-forwarding path on followers), or the
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

// dispatch handles one request and returns the response frame. It is the
// allocate-per-call convenience form of dispatchTo, for in-process
// callers and tests.
func (s *Server) dispatch(t wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	return s.dispatchTo(t, payload, nil)
}

// dispatchTo handles one request, appending the response payload to dst.
// Handlers own dst for the duration of the call and must return a slice
// based on it (possibly grown), so the connection loop can recycle one
// buffer across requests. The returned payload must not alias the
// request payload: the read scratch is reused before the response is
// framed on some paths.
func (s *Server) dispatchTo(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	if s.rdv != nil {
		// A rendezvous server has no model, directory, or query engine —
		// the peer bootstrap directory handles (or refuses) everything.
		// Both framing paths (lockstep and mux) land here, so the role
		// gate covers the whole protocol surface.
		return s.rdv.dispatch(t, payload, dst)
	}
	switch t {
	case wire.TypePing:
		tok, err := wire.PingToken(payload)
		if err != nil {
			return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
		}
		pong := wire.Pong{Token: tok}
		return wire.TypePong, pong.Encode(dst)
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
// blocks once any generation has been installed.
func (s *Server) handleGetModel(dst []byte) (wire.MsgType, []byte) {
	st := s.qs.served()
	if st == nil || st.snap.Model == nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		if s.pipeline != nil {
			if _, err := s.pipeline.Ready(ctx); err != nil {
				return wire.AppendError(dst, wire.CodeModelNotFit, err.Error())
			}
		} else if err := s.qs.waitReady(ctx); err != nil {
			return wire.AppendError(dst, wire.CodeModelNotFit, err.Error())
		}
		if st = s.qs.served(); st == nil || st.snap.Model == nil {
			return wire.AppendError(dst, wire.CodeModelNotFit, "no model published")
		}
	}
	model := st.snap.Model
	msg := &wire.Model{
		Dim:       uint32(model.Dim()),
		Algorithm: model.Algorithm.String(),
		Epoch:     st.snap.Epoch,
		Landmarks: make([]wire.LandmarkVec, len(st.addrs)),
	}
	for i, addr := range st.addrs {
		// Vector storage is shared with the model, which is immutable;
		// Encode only reads it.
		msg.Landmarks[i] = wire.LandmarkVec{
			Addr: addr,
			Out:  model.Outgoing(i),
			In:   model.Incoming(i),
		}
	}
	return wire.TypeModel, msg.Encode(dst)
}

// handleReport routes a measurement report: into the pipeline on a
// leader, relayed to the leader on a follower.
func (s *Server) handleReport(payload, dst []byte) (wire.MsgType, []byte) {
	if s.follower != nil {
		return s.follower.forward(wire.TypeReportRTT, payload, dst)
	}
	rep, err := wire.DecodeReportRTT(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	accepted, rejected, err := s.pipeline.Ingest(rep)
	if err != nil {
		return wire.AppendError(dst, wire.CodeNotLandmark, err.Error())
	}
	s.metrics.observeReport(len(accepted), rejected)
	if len(accepted) > 0 {
		s.recordReports(accepted)
	}
	return wire.TypeAck, dst
}
