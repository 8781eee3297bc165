package server

import (
	"bytes"
	"context"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/wire"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// bumpEpoch forces one refit by injecting a fresh measurement and
// refitting synchronously, returning the new epoch.
func bumpEpoch(t *testing.T, s *Server, ms float64) uint64 {
	t.Helper()
	rep := &wire.ReportRTT{From: s.cfg.Landmarks[0], Entries: []wire.RTTEntry{
		{To: s.cfg.Landmarks[1], RTTMillis: ms},
	}}
	if typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("report rejected")
	}
	epoch, err := s.Refit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

func TestModelCarriesEpoch(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	defer s.Close()
	typ, payload := s.Handle(wire.TypeGetModel, nil)
	if typ != wire.TypeModel {
		t.Fatalf("type %v", typ)
	}
	model, err := wire.DecodeModel(payload)
	if err != nil {
		t.Fatal(err)
	}
	if model.Epoch != 1 || s.Epoch() != 1 {
		t.Fatalf("first fit epoch = %d / %d, want 1", model.Epoch, s.Epoch())
	}
	if e := bumpEpoch(t, s, 1.5); e != 2 {
		t.Fatalf("epoch after refit = %d, want 2", e)
	}
	typ, payload = s.Handle(wire.TypeGetInfo, nil)
	if typ != wire.TypeInfo {
		t.Fatalf("type %v", typ)
	}
	info, err := wire.DecodeInfo(payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || !info.ModelReady {
		t.Fatalf("info %+v, want epoch 2 ready", info)
	}
}

// TestRegisterEpochValidation is the epoch-mismatch registration table:
// the current epoch is accepted, anything else — epoch 0 included — is
// refused with CodeStaleEpoch.
func TestRegisterEpochValidation(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	defer s.Close()
	model, err := s.Model() // epoch 1
	if err != nil {
		t.Fatal(err)
	}
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h, err := model.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	if e := bumpEpoch(t, s, 1.2); e != 2 {
		t.Fatalf("epoch = %d", e)
	}

	cases := []struct {
		name     string
		epoch    uint64
		wantType wire.MsgType
		wantCode uint16
	}{
		{"unversioned refused", 0, wire.TypeError, wire.CodeStaleEpoch},
		{"current epoch accepted", 2, wire.TypeAck, 0},
		{"stale epoch rejected", 1, wire.TypeError, wire.CodeStaleEpoch},
		{"future epoch rejected", 7, wire.TypeError, wire.CodeStaleEpoch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := &wire.RegisterHost{Addr: "H-" + tc.name, Out: h.Out, In: h.In, Epoch: tc.epoch}
			typ, payload := s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
			if typ != tc.wantType {
				t.Fatalf("type %v, want %v", typ, tc.wantType)
			}
			if tc.wantType == wire.TypeError {
				werr, err := wire.DecodeError(payload)
				if err != nil || werr.Code != tc.wantCode {
					t.Fatalf("error %+v %v, want code %d", werr, err, tc.wantCode)
				}
			}
		})
	}
}

// TestStaleVectorsEvictedOnRefit: entries registered against an epoch
// stop resolving the moment the model moves past it, and an epoch-0
// registration never enters a directory that has a model.
func TestStaleVectorsEvictedOnRefit(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	defer s.Close()
	model, err := s.Model() // epoch 1
	if err != nil {
		t.Fatal(err)
	}
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h, err := model.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	regV := &wire.RegisterHost{Addr: "versioned", Out: h.Out, In: h.In, Epoch: 1}
	if typ, _ := s.Handle(wire.TypeRegisterHost, regV.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("register versioned failed")
	}
	regU := &wire.RegisterHost{Addr: "legacy", Out: h.Out, In: h.In} // epoch 0
	if typ, _ := s.Handle(wire.TypeRegisterHost, regU.Encode(nil)); typ != wire.TypeError {
		t.Fatal("an epoch-0 registration must be refused once a model is served")
	}
	if n := s.NumHosts(); n != 1 {
		t.Fatalf("NumHosts = %d", n)
	}

	bumpEpoch(t, s, 1.3) // epoch 2: "versioned" is now a dead generation
	regC := &wire.RegisterHost{Addr: "current", Out: h.Out, In: h.In, Epoch: 2}
	if typ, _ := s.Handle(wire.TypeRegisterHost, regC.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("register current failed")
	}

	typ, payload := s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "versioned"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("type %v", typ)
	}
	v, _ := wire.DecodeVectors(payload)
	if v.Found {
		t.Fatal("stale-epoch vectors must not be served after a refit")
	}
	if v.Epoch != 2 {
		t.Fatalf("Vectors epoch = %d, want 2", v.Epoch)
	}
	typ, payload = s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "legacy"}).Encode(nil))
	if typ != wire.TypeVectors {
		t.Fatalf("type %v", typ)
	}
	if v, _ := wire.DecodeVectors(payload); v.Found {
		t.Fatal("a refused epoch-0 registration must read absent")
	}

	// The stale source reads as unknown in queries, and the response
	// carries the new epoch so the client knows why.
	typ, payload = s.Handle(wire.TypeQueryBatch, (&wire.QueryBatch{From: "versioned", Targets: []string{"current"}}).Encode(nil))
	if typ != wire.TypeDistances {
		t.Fatalf("type %v", typ)
	}
	resp, _ := wire.DecodeDistances(payload)
	if resp.SrcFound || resp.Epoch != 2 {
		t.Fatalf("stale source: %+v", resp)
	}
	// KNN from a current host must not rank the dead entry.
	typ, payload = s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: "current", K: 5}).Encode(nil))
	if typ != wire.TypeNeighbors {
		t.Fatalf("type %v", typ)
	}
	nbrs, _ := wire.DecodeNeighbors(payload)
	for _, e := range nbrs.Entries {
		if e.Addr == "versioned" {
			t.Fatal("stale entry served through KNN")
		}
	}
	if nbrs.Epoch != 2 {
		t.Fatalf("Neighbors epoch = %d", nbrs.Epoch)
	}
	if n := s.NumHosts(); n != 1 {
		t.Fatalf("NumHosts = %d after eviction, want 1", n)
	}
	// Re-registering at the current epoch resurrects the host.
	regV.Epoch = 2
	if typ, _ := s.Handle(wire.TypeRegisterHost, regV.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("re-register at current epoch failed")
	}
	typ, payload = s.Handle(wire.TypeQueryBatch, (&wire.QueryBatch{From: "versioned", Targets: []string{"current"}}).Encode(nil))
	if typ != wire.TypeDistances {
		t.Fatalf("type %v", typ)
	}
	if resp, _ := wire.DecodeDistances(payload); !resp.SrcFound || !resp.Results[0].Found {
		t.Fatalf("recovered host unusable: %+v", resp)
	}
}

// refitGate is a Config.Logger sink that holds a refit in flight. The
// leader logs "model refit: epoch N" on the refitter's loop, after the
// factorization and before the new snapshot is installed anywhere; once
// armed, the gate parks that write — and so the loop — until release is
// closed.
type refitGate struct {
	armed   atomic.Bool
	entered chan struct{} // closed when the armed gate has caught a refit
	release chan struct{}
}

func (g *refitGate) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("model refit: epoch")) && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return len(p), nil
}

// TestQueriesServeDuringRefit holds a background refit in flight with a
// gate and proves the serving path never stalls behind it: while the
// refitter's loop is parked between its factorization and the snapshot
// swap, QueryBatch and GetModel keep answering — stamped with the old
// epoch — and the epoch advances once the gate opens. The gate is only
// released after a request has been served wholly inside the window, so
// the test fails if no refit was actually in flight or if queries wait
// on it. Run with -race this also hammers the snapshot swap from many
// goroutines.
func TestQueriesServeDuringRefit(t *testing.T) {
	gate := &refitGate{entered: make(chan struct{}), release: make(chan struct{})}
	lm := []string{"L1", "L2", "L3", "L4"}
	s, err := New(Config{
		Landmarks:        lm,
		Dim:              2,
		Algorithm:        core.NMF,
		Seed:             1,
		RefitMinInterval: time.Nanosecond,
		RefitThreshold:   1,
		Logger:           log.New(gate, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// finish opens the gate (a parked loop would outlive the test) and
	// stops the query workers; deferred so every Fatal path runs it.
	openGate := sync.OnceFunc(func() { close(gate.release) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	finish := sync.OnceFunc(func() {
		openGate()
		close(stop)
		wg.Wait()
	})
	defer finish()
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
	model, err := s.Model() // epoch 1
	if err != nil {
		t.Fatal(err)
	}
	dh := []float64{0.5, 1.5, 1.5, 2.5}
	h, err := model.SolveHost(dh, dh)
	if err != nil {
		t.Fatal(err)
	}

	// The first fits may have raced the report loop: drain them, anchor
	// on whatever epoch is current, then arm the gate so the next refit
	// — triggered by the report below — is the one it catches.
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseEpoch := s.Epoch()
	reg := &wire.RegisterHost{Addr: "H1", Out: h.Out, In: h.In, Epoch: baseEpoch}
	if typ, _ := s.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("register failed")
	}
	gate.armed.Store(true)
	rep := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{{To: "L2", RTTMillis: 1.1}}}
	if typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("report rejected")
	}

	var served, servedDuringFit atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// An iteration that starts with the worker already
				// parked and is counted before the gate opens ran
				// entirely while the refit was in flight. The source is
				// a landmark, which every generation resolves; H1 stops
				// resolving once the refit publishes its epoch.
				inFlight := false
				select {
				case <-gate.entered:
					inFlight = true
				default:
				}
				epochBefore := s.Epoch()
				typ, payload := s.Handle(wire.TypeQueryBatch,
					(&wire.QueryBatch{From: "L1", Targets: []string{"L4", "H1"}}).Encode(nil))
				if typ != wire.TypeDistances {
					t.Errorf("QueryBatch answered %v", typ)
					return
				}
				resp, err := wire.DecodeDistances(payload)
				if err != nil || !resp.SrcFound {
					t.Errorf("batch during refit: %+v %v", resp, err)
					return
				}
				for _, r := range resp.Results {
					if r.Found && (math.IsNaN(r.Millis) || math.IsInf(r.Millis, 0)) {
						t.Errorf("torn estimate: %v", r.Millis)
						return
					}
				}
				typ, payload = s.Handle(wire.TypeGetModel, nil)
				if typ != wire.TypeModel {
					t.Errorf("GetModel answered %v", typ)
					return
				}
				m, err := wire.DecodeModel(payload)
				if err != nil {
					t.Errorf("torn model: %v", err)
					return
				}
				for _, l := range m.Landmarks {
					if len(l.Out) != int(m.Dim) || len(l.In) != int(m.Dim) {
						t.Errorf("torn model: landmark dims %d/%d vs %d", len(l.Out), len(l.In), m.Dim)
						return
					}
				}
				if m.Epoch < epochBefore {
					t.Errorf("epoch went backward: %d -> %d", epochBefore, m.Epoch)
					return
				}
				served.Add(1)
				if inFlight && epochBefore == baseEpoch && m.Epoch == baseEpoch {
					servedDuringFit.Add(1)
				}
			}
		}()
	}

	select {
	case <-gate.entered:
	case <-time.After(60 * time.Second):
		t.Fatal("the report never put a refit in flight")
	}
	deadline := time.Now().Add(60 * time.Second)
	for servedDuringFit.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no queries served while the refit was in flight (served %d total)", served.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Epoch(); got != baseEpoch {
		t.Fatalf("epoch %d served while the refit is still parked, want the old epoch %d", got, baseEpoch)
	}
	openGate()
	for s.Epoch() <= baseEpoch {
		if time.Now().After(deadline) {
			t.Fatal("refit never completed")
		}
		time.Sleep(time.Millisecond)
	}
	finish()
	t.Logf("served %d requests, %d of them during the in-flight refit", served.Load(), servedDuringFit.Load())
}

// TestConcurrentReportsQueriesRefits is a pure race soak: reporters,
// registrars and queriers run against continuous background refits.
func TestConcurrentReportsQueriesRefits(t *testing.T) {
	lm := []string{"L1", "L2", "L3", "L4"}
	s, err := New(Config{
		Landmarks:        lm,
		Dim:              2,
		Algorithm:        core.SVD,
		Seed:             1,
		RefitMinInterval: time.Microsecond,
		RefitThreshold:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	if _, err := s.Model(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	work := []func(i int){
		func(i int) { // reporter: drives refit churn
			ms := 1 + float64(i%10)/10
			rep := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{{To: "L2", RTTMillis: ms}}}
			s.Handle(wire.TypeReportRTT, rep.Encode(nil))
		},
		func(i int) { // registrar: at the served epoch, unless a refit lands first
			reg := &wire.RegisterHost{Addr: "H", Out: []float64{1, 2}, In: []float64{3, 4}, Epoch: s.Epoch()}
			s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
		},
		func(i int) { // querier
			s.Handle(wire.TypeQueryBatch, (&wire.QueryBatch{From: "H", Targets: []string{"L1", "L3", "H"}}).Encode(nil))
			s.Handle(wire.TypeQueryKNN, (&wire.QueryKNN{From: "L1", K: 3}).Encode(nil))
		},
		func(i int) { // info/model readers
			s.Handle(wire.TypeGetInfo, nil)
			s.Handle(wire.TypeGetModel, nil)
		},
	}
	for _, fn := range work {
		wg.Add(1)
		go func(fn func(int)) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}(fn)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Epoch() < 2 {
		t.Fatalf("expected refit churn, epoch = %d", s.Epoch())
	}
}

// TestRegisterRefusedDuringPublicationWindow: installSnapshot advances
// the directory epoch before the snapshot store makes the new epoch
// visible. A registration arriving in that window, stamped with the
// snapshot's (older) epoch, would be dead on arrival — it must be
// refused with CodeStaleEpoch, not Acked.
func TestRegisterRefusedDuringPublicationWindow(t *testing.T) {
	s := ringLandmarks(t, core.SVD)
	defer s.Close()
	model, err := s.Model() // epoch 1
	if err != nil {
		t.Fatal(err)
	}
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h, err := model.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate mid-publication: directory already at 2, snapshot still 1.
	s.qs.dir.AdvanceEpoch(2)
	reg := &wire.RegisterHost{Addr: "H", Out: h.Out, In: h.In, Epoch: 1}
	typ, payload := s.Handle(wire.TypeRegisterHost, reg.Encode(nil))
	if typ != wire.TypeError {
		t.Fatalf("window registration answered %v, want Error", typ)
	}
	if werr, _ := wire.DecodeError(payload); werr.Code != wire.CodeStaleEpoch {
		t.Fatalf("code %d, want CodeStaleEpoch", werr.Code)
	}
}

// TestHostsSurviveIncrementalRevisions: with the SGD solver, new
// measurements publish incremental revisions — the served landmark
// vectors move, LifecycleStats().Rev climbs — but the epoch holds, so a
// host registered against the generation keeps resolving and querying
// without re-solving. A drift-forced corrective fit then bumps the
// epoch and evicts it, proving revisions (not a dead refitter) were
// keeping it alive.
func TestHostsSurviveIncrementalRevisions(t *testing.T) {
	lm := []string{"L1", "L2", "L3", "L4"}
	s, err := New(Config{
		Landmarks:           lm,
		Dim:                 3,
		Seed:                1,
		Solver:              solve.SGD,
		RefitMinInterval:    time.Millisecond,
		DriftEpochThreshold: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := [][]float64{
		{0, 10, 12, 21},
		{10, 0, 20, 11},
		{12, 20, 0, 13},
		{21, 11, 13, 0},
	}
	report := func(scale float64) {
		t.Helper()
		for i, from := range lm {
			rep := &wire.ReportRTT{From: from}
			for j, to := range lm {
				if i == j {
					continue
				}
				rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: d[i][j] * scale})
			}
			if typ, _ := s.Handle(wire.TypeReportRTT, rep.Encode(nil)); typ != wire.TypeAck {
				t.Fatalf("report %d rejected", i)
			}
		}
	}
	report(1)
	snap, err := s.refit.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	epoch := snap.Epoch

	reg := &wire.RegisterHost{Addr: "survivor", Out: []float64{1, 2, 3}, In: []float64{3, 2, 1}, Epoch: epoch}
	if typ, _ := s.Handle(wire.TypeRegisterHost, reg.Encode(nil)); typ != wire.TypeAck {
		t.Fatal("register rejected")
	}

	// Gentle churn: each round must publish a revision, not a refit.
	for round := 0; round < 3; round++ {
		before := s.LifecycleStats()
		report(1 + 0.02*float64(round+1))
		waitFor(t, 5*time.Second, func() bool { return s.LifecycleStats().Revisions > before.Revisions })
		if got := s.Epoch(); got != epoch {
			t.Fatalf("revision bumped epoch %d -> %d", epoch, got)
		}
		typ, payload := s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "survivor"}).Encode(nil))
		if typ != wire.TypeVectors {
			t.Fatalf("GetVectors answered %v", typ)
		}
		v, err := wire.DecodeVectors(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Found {
			t.Fatalf("round %d: host evicted by an incremental revision", round)
		}
	}
	if st := s.LifecycleStats(); st.Fits != 1 {
		t.Fatalf("fits = %d during revision churn, want just the seed", st.Fits)
	}

	// A real shift drives drift over the threshold: corrective fit,
	// epoch bump, and the old generation's host dies with it.
	report(3)
	waitFor(t, 5*time.Second, func() bool { return s.Epoch() > epoch })
	waitFor(t, 5*time.Second, func() bool {
		typ, payload := s.Handle(wire.TypeGetVectors, (&wire.GetVectors{Addr: "survivor"}).Encode(nil))
		if typ != wire.TypeVectors {
			t.Fatalf("GetVectors answered %v", typ)
		}
		v, err := wire.DecodeVectors(payload)
		if err != nil {
			t.Fatal(err)
		}
		return !v.Found
	})
}
