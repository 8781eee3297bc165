package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// Model is Refit for the tests that want the model itself: the landmark
// model with every measurement reported before the call folded in.
func (s *Server) Model() (*core.Model, error) {
	if s.refit == nil {
		return nil, fmt.Errorf("server: follower has no model pipeline")
	}
	snap, err := s.refit.Refresh(context.Background())
	if err != nil {
		return nil, err
	}
	return snap.Model, nil
}

func testServer(t *testing.T, lm []string, alg core.Algorithm) *Server {
	t.Helper()
	s, err := New(Config{Landmarks: lm, Dim: 2, Algorithm: alg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ringLandmarks loads the paper's 4-node ring distances into the server via
// ReportRTT frames and returns it ready to serve a model.
func ringLandmarks(t *testing.T, alg core.Algorithm) *Server {
	t.Helper()
	return ringServer(t, Config{Dim: 3, Algorithm: alg, Seed: 1, NMFIters: 500})
}

// ringServer is ringLandmarks over any configuration; it names the
// landmarks itself.
func ringServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	lm := []string{"L1", "L2", "L3", "L4"}
	cfg.Landmarks = lm
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := [][]float64{
		{0, 1, 1, 2},
		{1, 0, 2, 1},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
	}
	for i, from := range lm {
		rep := &wire.ReportRTT{From: from}
		for j, to := range lm {
			if i == j {
				continue
			}
			rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j]})
		}
		typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil))
		if typ != wire.TypeAck {
			t.Fatalf("report %d answered %v", i, typ)
		}
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Landmarks: []string{"a"}}); err == nil {
		t.Fatal("single landmark must be rejected")
	}
	if _, err := New(Config{Landmarks: []string{"a", "a"}}); err == nil {
		t.Fatal("duplicate landmarks must be rejected")
	}
}

// TestPingPong: the frame server answers Ping for the server (its own
// dispatch has no case for it), so the exchange runs over a connection.
func TestPingPong(t *testing.T) {
	s := testServer(t, []string{"a", "b"}, core.SVD)
	conn, err := net.Dial("tcp", serveTCP(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 7}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TypePong {
		t.Fatalf("type %v, err %v", typ, err)
	}
	pong, err := wire.DecodePong(payload)
	if err != nil || pong.Token != 7 {
		t.Fatalf("pong %+v err %v", pong, err)
	}
}

func TestGetInfoBeforeModel(t *testing.T) {
	s := testServer(t, []string{"a", "b"}, core.SVD)
	typ, payload := s.Handle(wire.TypeGetInfo, nil)
	if typ != wire.TypeInfo {
		t.Fatalf("type %v", typ)
	}
	info, err := wire.DecodeInfo(payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.ModelReady {
		t.Fatal("model must not be ready before any reports")
	}
	if info.NumLandmarks != 2 || info.Dim != 2 {
		t.Fatalf("info %+v", info)
	}
}

func TestGetModelBeforeDataFails(t *testing.T) {
	s := testServer(t, []string{"a", "b", "c"}, core.SVD)
	typ, payload := s.Handle(wire.TypeGetModel, nil)
	if typ != wire.TypeError {
		t.Fatalf("type %v want Error", typ)
	}
	werr, err := wire.DecodeError(payload)
	if err != nil || werr.Code != wire.CodeModelNotFit {
		t.Fatalf("error %+v %v", werr, err)
	}
}

func TestReportAndModel(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	typ, payload := s.Handle(wire.TypeGetModel, nil)
	if typ != wire.TypeModel {
		t.Fatalf("type %v", typ)
	}
	model, err := wire.DecodeModel(payload)
	if err != nil {
		t.Fatal(err)
	}
	if model.Dim != 3 || len(model.Landmarks) != 4 {
		t.Fatalf("model %+v", model)
	}
	// The rank-3 model reconstructs the ring exactly: check L1→L4 = 2.
	est := mat.Dot(model.Landmarks[0].Out, model.Landmarks[3].In)
	if math.Abs(est-2) > 1e-6 {
		t.Fatalf("L1→L4 = %v want 2", est)
	}
}

func TestReportFromUnknownSourceRejected(t *testing.T) {
	s := testServer(t, []string{"a", "b"}, core.SVD)
	rep := &wire.ReportRTT{From: "evil", Entries: []wire.RTTEntry{{To: "a", RTTMillis: 1}}}
	typ, payload := s.Handle(wire.TypeReportRTT, rep.Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("type %v want Error", typ)
	}
	werr, _ := wire.DecodeError(payload)
	if werr.Code != wire.CodeNotLandmark {
		t.Fatalf("code %d want CodeNotLandmark", werr.Code)
	}
}

func TestReportIgnoresGarbageEntries(t *testing.T) {
	s := testServer(t, []string{"a", "b"}, core.SVD)
	rep := &wire.ReportRTT{From: "a", Entries: []wire.RTTEntry{
		{To: "ghost", RTTMillis: 5},       // unknown target
		{To: "a", RTTMillis: 5},           // self
		{To: "b", RTTMillis: -3},          // negative
		{To: "b", RTTMillis: math.NaN()},  // NaN
		{To: "b", RTTMillis: math.Inf(1)}, // Inf
	}}
	typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil))
	if typ != wire.TypeAck {
		t.Fatalf("type %v", typ)
	}
	// Nothing usable arrived: model must still be unfittable.
	if _, err := s.Model(); err == nil {
		t.Fatal("model should not fit from garbage reports")
	}
}

// TestReportRefusesAbsurdRTT: a finite RTT no network produces is
// dropped and counted like a NaN one, under either solver. Folded in,
// three 1e200 ms entries after the first fit made GetModel serve +Inf
// (batch) or NaN (SGD) landmark coordinates to every client.
func TestReportRefusesAbsurdRTT(t *testing.T) {
	for _, kind := range []solve.Kind{solve.Batch, solve.SGD} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s := ringServer(t, Config{Dim: 3, Seed: 1, Solver: kind, Metrics: reg})
			defer s.Close()
			if _, err := s.Model(); err != nil {
				t.Fatal(err)
			}
			for _, to := range []string{"L2", "L3", "L4"} {
				rep := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{{To: to, RTTMillis: 1e200}}}
				if typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
					t.Fatalf("report answered %v", typ)
				}
			}
			if _, err := s.Model(); err != nil {
				t.Fatal(err)
			}
			typ, payload := s.Handle(wire.TypeGetModel, nil)
			model, err := wire.DecodeModel(payload)
			if typ != wire.TypeModel || err != nil {
				t.Fatalf("GetModel answered %v (%v)", typ, err)
			}
			for _, lm := range model.Landmarks {
				for _, f := range slices.Concat(lm.Out, lm.In) {
					if math.IsNaN(f) || math.IsInf(f, 0) {
						t.Fatalf("landmark %s served with coordinates out=%v in=%v", lm.Addr, lm.Out, lm.In)
					}
				}
			}
			if got := reg.Export()["ides_server_reports_rejected_total"]; got != 3 {
				t.Fatalf("ides_server_reports_rejected_total = %v, want 3", got)
			}
		})
	}
}

func TestIncompleteMatrixRequiresNMF(t *testing.T) {
	lm := []string{"a", "b", "c", "d"}
	s, err := New(Config{Landmarks: lm, Dim: 2, Algorithm: core.SVD, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only report a subset of pairs; d never measured.
	rep := &wire.ReportRTT{From: "a", Entries: []wire.RTTEntry{
		{To: "b", RTTMillis: 10}, {To: "c", RTTMillis: 20}, {To: "d", RTTMillis: 30},
	}}
	s.Handle(wire.TypeReportRTT, rep.Encode(nil))
	rep2 := &wire.ReportRTT{From: "b", Entries: []wire.RTTEntry{
		{To: "c", RTTMillis: 15}, {To: "d", RTTMillis: 22},
	}}
	s.Handle(wire.TypeReportRTT, rep2.Encode(nil))
	rep3 := &wire.ReportRTT{From: "c", Entries: []wire.RTTEntry{{To: "d", RTTMillis: 9}}}
	s.Handle(wire.TypeReportRTT, rep3.Encode(nil))
	// Complete clique: SVD fine.
	if _, err := s.Model(); err != nil {
		t.Fatalf("complete matrix should fit: %v", err)
	}
}

func TestIncompleteMatrixSVDFailsNMFWorks(t *testing.T) {
	reports := func(s *Server) {
		// 4 landmarks; the (c,d) pair is never measured.
		pairs := []struct {
			from, to string
			ms       float64
		}{
			{"a", "b", 10}, {"a", "c", 20}, {"a", "d", 30},
			{"b", "c", 15}, {"b", "d", 22},
		}
		for _, p := range pairs {
			rep := &wire.ReportRTT{From: p.from, Entries: []wire.RTTEntry{{To: p.to, RTTMillis: p.ms}}}
			if typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
				t.Fatalf("report %v rejected", p)
			}
		}
	}
	lm := []string{"a", "b", "c", "d"}
	svd, err := New(Config{Landmarks: lm, Dim: 2, Algorithm: core.SVD, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reports(svd)
	if _, err := svd.Model(); err == nil {
		t.Fatal("SVD with a hole in the matrix must refuse to fit")
	}
	nmf, err := New(Config{Landmarks: lm, Dim: 2, Algorithm: core.NMF, Seed: 1, NMFIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	reports(nmf)
	if _, err := nmf.Model(); err != nil {
		t.Fatalf("NMF should fit around the hole: %v", err)
	}
}

func TestRegisterAndQuery(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}
	// Solve H1's vectors offline exactly like a client would.
	model, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h1, err := model.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	reg := &wire.RegisterHost{Addr: "H1", Out: h1.Out, In: h1.In, Epoch: s.Epoch()}
	typ, _ := s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
	if typ != wire.TypeAck {
		t.Fatalf("register answered %v", typ)
	}
	if s.NumHosts() != 1 {
		t.Fatalf("NumHosts = %d", s.NumHosts())
	}

	// Directory lookup.
	typ, payload := s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "H1"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("type %v", typ)
	}
	v, err := wire.DecodeVectors(payload)
	if err != nil || !v.Found {
		t.Fatalf("vectors %+v %v", v, err)
	}

	// Distance host→landmark via the server: H1→L4 = 2.5 (paper example).
	typ, payload = s.Handle(wire.TypeQueryDist, (&wire.QueryDist{From: "H1", To: "L4"}).Encode(nil))
	if typ != wire.TypeDistance {
		t.Fatalf("type %v", typ)
	}
	dd, err := wire.ParseDistance(payload)
	if err != nil || !dd.Found {
		t.Fatalf("distance %+v %v", dd, err)
	}
	if math.Abs(dd.Millis-2.5) > 1e-6 {
		t.Fatalf("H1→L4 = %v want 2.5", dd.Millis)
	}
}

// registerRingHosts solves and registers n hosts against the fitted ring
// model, at distances (base+i)·[0.5, 1.5, 1.5, 2.5] so host 0 is closest
// to L1. Returns the registered addresses.
func registerRingHosts(t *testing.T, s *Server, n int) []string {
	t.Helper()
	model, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		scale := 1 + float64(i)
		d := []float64{0.5 * scale, 1.5 * scale, 1.5 * scale, 2.5 * scale}
		v, err := model.SolveHost(d, d)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = fmt.Sprintf("H%d", i)
		reg := &wire.RegisterHost{Addr: addrs[i], Out: v.Out, In: v.In, Epoch: s.Epoch()}
		if typ, _ := s.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
			t.Fatalf("register %s answered %v", addrs[i], typ)
		}
	}
	return addrs
}

func TestQueryBatch(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	addrs := registerRingHosts(t, s, 3)

	// Source H0 → two hosts, one landmark, one ghost: one round trip.
	req := &wire.QueryBatch{From: addrs[0], Targets: []string{addrs[1], "ghost", "L4", addrs[2]}}
	typ, payload := s.Handle(wire.TypeQueryBatch, req.Encode(nil))
	if typ != wire.TypeDistances {
		t.Fatalf("type %v", typ)
	}
	resp, err := wire.DecodeDistances(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SrcFound {
		t.Fatal("source H0 must resolve")
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results", len(resp.Results))
	}
	if !resp.Results[0].Found || resp.Results[1].Found || !resp.Results[2].Found || !resp.Results[3].Found {
		t.Fatalf("found flags wrong: %+v", resp.Results)
	}
	// Batch answers must agree with the point query, entry by entry.
	for i, target := range req.Targets {
		typ, p := s.Handle(wire.TypeQueryDist, (&wire.QueryDist{From: addrs[0], To: target}).Encode(nil))
		if typ != wire.TypeDistance {
			t.Fatalf("point query type %v", typ)
		}
		point, _ := wire.ParseDistance(p)
		if point.Found != resp.Results[i].Found {
			t.Fatalf("target %d: batch found=%v point found=%v", i, resp.Results[i].Found, point.Found)
		}
		if point.Found && math.Abs(point.Millis-resp.Results[i].Millis) > 1e-9 {
			t.Fatalf("target %d: batch %v != point %v", i, resp.Results[i].Millis, point.Millis)
		}
	}
	// L4 from the paper example: H0→L4 = 2.5.
	if math.Abs(resp.Results[2].Millis-2.5) > 1e-6 {
		t.Fatalf("H0→L4 = %v want 2.5", resp.Results[2].Millis)
	}
}

func TestQueryBatchUnknownSource(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	registerRingHosts(t, s, 1)
	req := &wire.QueryBatch{From: "nobody", Targets: []string{"H0"}}
	typ, payload := s.Handle(wire.TypeQueryBatch, req.Encode(nil))
	if typ != wire.TypeDistances {
		t.Fatalf("type %v", typ)
	}
	resp, _ := wire.DecodeDistances(payload)
	if resp.SrcFound {
		t.Fatal("unknown source must report SrcFound=false")
	}
	if len(resp.Results) != 1 || resp.Results[0].Found {
		t.Fatalf("results for unknown source: %+v", resp.Results)
	}
}

func TestQueryKNN(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	addrs := registerRingHosts(t, s, 5)

	typ, payload := s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: addrs[0], K: 3}).Encode(nil))
	if typ != wire.TypeNeighbors {
		t.Fatalf("type %v", typ)
	}
	resp, err := wire.DecodeNeighbors(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SrcFound {
		t.Fatal("source must resolve")
	}
	if len(resp.Entries) != 3 {
		t.Fatalf("%d neighbors, want 3", len(resp.Entries))
	}
	// The source itself must be excluded, results ascending.
	for i, e := range resp.Entries {
		if e.Addr == addrs[0] {
			t.Fatal("KNN must exclude the source")
		}
		if i > 0 && e.Millis < resp.Entries[i-1].Millis {
			t.Fatal("KNN results not ascending")
		}
	}
	// Hosts were registered at increasing distance scales, so the
	// nearest neighbor of H0 is H1.
	if resp.Entries[0].Addr != "H1" {
		t.Fatalf("nearest = %s want H1 (got %+v)", resp.Entries[0].Addr, resp.Entries)
	}

	// k > n returns all (other) hosts, not an error.
	typ, payload = s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: addrs[0], K: 100}).Encode(nil))
	if typ != wire.TypeNeighbors {
		t.Fatalf("type %v", typ)
	}
	resp, _ = wire.DecodeNeighbors(payload)
	if len(resp.Entries) != 4 {
		t.Fatalf("k>n returned %d, want 4", len(resp.Entries))
	}

	// k = 0 is a bad request.
	typ, payload = s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: addrs[0], K: 0}).Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("k=0: type %v want Error", typ)
	}
	if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeBadRequest {
		t.Fatalf("k=0: code %d", werr.Code)
	}

	// Unknown source: SrcFound=false, no neighbors.
	typ, payload = s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: "nobody", K: 2}).Encode(nil))
	if typ != wire.TypeNeighbors {
		t.Fatalf("type %v", typ)
	}
	resp, _ = wire.DecodeNeighbors(payload)
	if resp.SrcFound || len(resp.Entries) != 0 {
		t.Fatalf("unknown source: %+v", resp)
	}
}

func TestQueryBatchRespectsMaxBatch(t *testing.T) {
	lm := []string{"L1", "L2"}
	s, err := New(Config{Landmarks: lm, Dim: 2, Algorithm: core.SVD, Seed: 1, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	req := &wire.QueryBatch{From: "H0", Targets: []string{"a", "b", "c", "d"}}
	typ, payload := s.Handle(wire.TypeQueryBatch, req.Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("type %v want Error", typ)
	}
	if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeBadRequest {
		t.Fatalf("code %d", werr.Code)
	}
	// At the limit it is served normally.
	req.Targets = req.Targets[:3]
	if typ, _ := s.Handle(wire.TypeQueryBatch, req.Encode(nil)); typ != wire.TypeDistances {
		t.Fatalf("at-limit batch answered %v", typ)
	}
}

func TestQueryKNNRespectsMaxKNN(t *testing.T) {
	lm := []string{"L1", "L2", "L3", "L4"}
	s, err := New(Config{Landmarks: lm, Dim: 3, Algorithm: core.SVD, Seed: 1, MaxKNN: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := [][]float64{{0, 1, 1, 2}, {1, 0, 2, 1}, {1, 2, 0, 1}, {2, 1, 1, 0}}
	for i, from := range lm {
		rep := &wire.ReportRTT{From: from}
		for j, to := range lm {
			if i != j {
				rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j]})
			}
		}
		s.Handle(wire.TypeReportRTT, rep.Encode(nil))
	}
	addrs := registerRingHosts(t, s, 5)
	typ, payload := s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: addrs[0], K: 100}).Encode(nil))
	if typ != wire.TypeNeighbors {
		t.Fatalf("type %v", typ)
	}
	resp, _ := wire.DecodeNeighbors(payload)
	if len(resp.Entries) != 2 {
		t.Fatalf("MaxKNN=2 returned %d entries", len(resp.Entries))
	}
}

func TestQueryUnknownHost(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}
	typ, payload := s.Handle(wire.TypeQueryDist, (&wire.QueryDist{From: "nobody", To: "L1"}).Encode(nil))
	if typ != wire.TypeDistance {
		t.Fatalf("type %v", typ)
	}
	dd, _ := wire.ParseDistance(payload)
	if dd.Found {
		t.Fatal("unknown host must report not found")
	}
}

func TestRegisterWrongDimension(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}
	reg := &wire.RegisterHost{Addr: "H1", Out: []float64{1}, In: []float64{1}, Epoch: s.Epoch()}
	typ, payload := s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("type %v want Error", typ)
	}
	werr, _ := wire.DecodeError(payload)
	if werr.Code != wire.CodeBadRequest {
		t.Fatalf("code %d", werr.Code)
	}
}

// TestRegisterRefusesNonFiniteVectors: a host registering a NaN or
// infinite coordinate is refused like a wrong dimension. Accepted, a
// −Inf incoming vector made the attacker every querier's nearest
// neighbour at −Inf ms on the exact scan, and split the k-NN index from
// it.
func TestRegisterRefusesNonFiniteVectors(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	defer s.Close()
	hosts := registerRingHosts(t, s, 3)
	model, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	d := []float64{0.5, 1.5, 1.5, 2.5}
	honest, err := model.SolveHost(d, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		x    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}} {
		in := append([]float64(nil), honest.In...)
		in[0] = row.x
		reg := &wire.RegisterHost{Addr: "evil" + row.name, Out: honest.Out, In: in, Epoch: s.Epoch()}
		typ, payload := s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
		if typ != wire.TypeError {
			t.Fatalf("%s coordinate: answered %v, want CodeBadRequest", row.name, typ)
		}
		if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeBadRequest {
			t.Fatalf("%s coordinate: code %d, want CodeBadRequest", row.name, werr.Code)
		}
	}
	typ, payload := s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: hosts[0], K: 1}).Encode(nil))
	nb, err := wire.DecodeNeighbors(payload)
	if typ != wire.TypeNeighbors || err != nil || len(nb.Entries) != 1 {
		t.Fatalf("QueryKNN answered %v %+v %v", typ, nb, err)
	}
	if got := nb.Entries[0].Addr; strings.HasPrefix(got, "evil") {
		t.Fatalf("%s's nearest neighbour is the attacker %q at %v ms", hosts[0], got, nb.Entries[0].Millis)
	}
}

func TestUnknownTypeError(t *testing.T) {
	s := testServer(t, []string{"a", "b"}, core.SVD)
	typ, payload := s.Handle(wire.MsgType(0xEE), nil)
	if typ != wire.TypeError {
		t.Fatalf("type %v", typ)
	}
	werr, _ := wire.DecodeError(payload)
	if werr.Code != wire.CodeUnknownType {
		t.Fatalf("code %d", werr.Code)
	}
}

func TestModelRefitOnNewReports(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	m1, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	// New measurements shift L1-L2 from 1ms to 5ms; model must change.
	rep := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{{To: "L2", RTTMillis: 5}}}
	s.Handle(wire.TypeReportRTT, rep.Encode(nil))
	m2, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("model must be refit after new reports")
	}
	if got := m2.EstimateLandmarks(0, 1); math.Abs(got-5) > 0.5 {
		t.Fatalf("refit L1→L2 = %v want ~5", got)
	}
}

// TestServeOverTCP exercises the accept loop, deadlines and framing over a
// real loopback connection.
func TestServeOverTCP(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	ln := testutil.Loopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Two sequential requests on one connection.
	if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TypePong {
		t.Fatalf("first exchange: %v %v", typ, err)
	}
	if err := wire.WriteFrame(conn, wire.TypeGetModel, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TypeModel {
		t.Fatalf("second exchange: %v %v", typ, err)
	}
	if _, err := wire.DecodeModel(payload); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop on cancel")
	}
}

func TestHostTTLExpiry(t *testing.T) {
	lm := []string{"L1", "L2", "L3", "L4"}
	s, err := New(Config{Landmarks: lm, Dim: 3, Algorithm: core.SVD, Seed: 1, HostTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a controllable clock.
	now := time.Unix(1000000, 0)
	s.SetNow(func() time.Time { return now })

	// Load the ring and fit so landmark lookups work.
	d := [][]float64{{0, 1, 1, 2}, {1, 0, 2, 1}, {1, 2, 0, 1}, {2, 1, 1, 0}}
	for i, from := range lm {
		rep := &wire.ReportRTT{From: from}
		for j, to := range lm {
			if i != j {
				rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j]})
			}
		}
		s.Handle(wire.TypeReportRTT, rep.Encode(nil))
	}
	model, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h1, err := model.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	reg := &wire.RegisterHost{Addr: "H1", Out: h1.Out, In: h1.In, Epoch: s.Epoch()}
	if typ, _ := s.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("register failed")
	}
	if s.NumHosts() != 1 {
		t.Fatalf("NumHosts = %d", s.NumHosts())
	}

	// Within TTL: found.
	typ, payload := s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "H1"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("type %v", typ)
	}
	if v, _ := wire.DecodeVectors(payload); !v.Found {
		t.Fatal("fresh entry must be found")
	}

	// Past TTL: gone from lookups and counts.
	now = now.Add(2 * time.Minute)
	typ, payload = s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "H1"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("type %v", typ)
	}
	if v, _ := wire.DecodeVectors(payload); v.Found {
		t.Fatal("expired entry must not be served")
	}
	if s.NumHosts() != 0 {
		t.Fatalf("NumHosts = %d after expiry", s.NumHosts())
	}

	// Landmarks are unaffected by TTL.
	typ, payload = s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "L1"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("type %v", typ)
	}
	if v, _ := wire.DecodeVectors(payload); !v.Found {
		t.Fatal("landmark lookup must still work")
	}

	// Re-registering resurrects the host and sweeps the stale entry.
	if typ, _ := s.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("re-register failed")
	}
	if s.NumHosts() != 1 {
		t.Fatalf("NumHosts = %d after re-register", s.NumHosts())
	}
}

func TestHostTTLZeroNeverExpires(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000000, 0)
	s.SetNow(func() time.Time { return now })
	model, _ := s.Model()
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h1, _ := model.SolveHost(d1, d1)
	reg := &wire.RegisterHost{Addr: "H1", Out: h1.Out, In: h1.In, Epoch: s.Epoch()}
	s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
	now = now.Add(1000 * time.Hour)
	if s.NumHosts() != 1 {
		t.Fatal("TTL=0 must never expire hosts")
	}
}

// TestDispatchMalformedPayloads injects truncated/garbage payloads into
// every request type; the server must answer with a BadRequest error and
// never panic.
func TestDispatchMalformedPayloads(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}
	types := []wire.MsgType{
		wire.TypePing, wire.TypeReportRTT, wire.TypeRegisterHost,
		wire.TypeGetVectors, wire.TypeQueryDist,
		wire.TypeQueryBatch, wire.TypeQueryKNN,
	}
	payloads := [][]byte{nil, {0x01}, {0xFF, 0xFF, 0xFF, 0xFF}}
	for _, typ := range types {
		for _, p := range payloads {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v with payload %x panicked: %v", typ, p, r)
					}
				}()
				respT, respP := s.Handle(typ, p)
				if respT == wire.TypeError {
					if _, err := wire.DecodeError(respP); err != nil {
						t.Fatalf("%v: undecodable error frame", typ)
					}
				}
			}()
		}
	}
}

func TestServeRejectsGarbageStream(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	ln := testutil.Loopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Serve(ctx, ln) //nolint:errcheck

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Not a frame at all: the server must close the connection without
	// crashing; subsequent connections still work.
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	conn.Read(buf) //nolint:errcheck // either EOF or reset is fine

	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, wire.TypePing, (&wire.Ping{Token: 9}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(conn2)
	if err != nil || typ != wire.TypePong {
		t.Fatalf("server unusable after garbage stream: %v %v", typ, err)
	}
}

// serveTCP starts s on a loopback listener and returns its address plus a
// shutdown func.
func serveTCP(t *testing.T, s *Server) string {
	t.Helper()
	ln := testutil.Loopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(ctx, ln) }() //nolint:errcheck
	t.Cleanup(func() { cancel(); <-done })
	return ln.Addr().String()
}

func TestIdleConnectionOutlivesRequestTimeout(t *testing.T) {
	// A keep-alive connection idling past RequestTimeout must stay open:
	// idle waits run on the (longer) IdleTimeout budget, not the request
	// budget. Before the split, pooled connections died after one
	// RequestTimeout of idleness.
	lm := []string{"L1", "L2"}
	s, err := New(Config{Landmarks: lm, Dim: 2, Seed: 1, RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := serveTCP(t, s)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ping := func(token uint64) {
		t.Helper()
		if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: token}).Encode(nil)); err != nil {
			t.Fatalf("write after idle: %v", err)
		}
		typ, _, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypePong {
			t.Fatalf("exchange %d: %v %v", token, typ, err)
		}
	}
	ping(1)
	time.Sleep(500 * time.Millisecond) // > 3x RequestTimeout of idleness
	ping(2)
}

func TestIdleTimeoutDefaultsWellAboveRequestTimeout(t *testing.T) {
	s, err := New(Config{Landmarks: []string{"L1", "L2"}, Dim: 2, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.IdleTimeout < 5*time.Minute {
		t.Fatalf("default IdleTimeout %v, want >= 5m", s.cfg.IdleTimeout)
	}
	s2, err := New(Config{Landmarks: []string{"L1", "L2"}, Dim: 2, RequestTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.cfg.IdleTimeout != 10*time.Hour {
		t.Fatalf("IdleTimeout %v for 1h RequestTimeout, want 10h", s2.cfg.IdleTimeout)
	}
}
