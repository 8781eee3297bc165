package server

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// observedServer builds a ring-loaded server with both sinks attached.
func observedServer(t *testing.T) (*Server, *telemetry.Registry, string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	hist, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hist.Close() })
	s := ringServer(t, Config{Dim: 3, Seed: 1, Metrics: reg, History: hist})
	t.Cleanup(s.Close)
	return s, reg, dir
}

func TestServerMetricsExport(t *testing.T) {
	s, reg, _ := observedServer(t)
	if _, err := s.Refit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One query so the query-layer histograms tick too.
	req := &wire.QueryBatch{From: "L1", Targets: []string{"L2", "L3"}}
	if typ, _ := s.Handle(wire.TypeQueryBatch, req.Encode(nil)); typ != wire.TypeDistances {
		t.Fatalf("batch answered %v", typ)
	}
	// Per-type request counters tick on the connection loop, so drive one
	// request over a real connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(ctx, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.TypePong {
		t.Fatalf("ping answered %v, %v", typ, err)
	}
	conn.Close()
	cancel()
	<-done

	vals := reg.Export()
	checks := []struct {
		name string
		want float64
	}{
		{`ides_server_requests_total{type="Ping"}`, 1},
		{`ides_server_request_seconds_count{type="Ping"}`, 1},
		{"ides_server_reports_accepted_total", 12},
		{"ides_server_reports_rejected_total", 0},
		{"ides_model_fits_total", 1},
		{"ides_model_epoch", 1},
		{"ides_model_deltas_total", 12},
		{"ides_model_fit_seconds_count", 1},
		{"ides_query_batch_size_count", 1},
		{"ides_query_batch_seconds_count", 1},
	}
	for _, c := range checks {
		if got, ok := vals[c.name]; !ok || got != c.want {
			t.Errorf("%s = %v (present=%v), want %v", c.name, got, ok, c.want)
		}
	}

	// The exposition text must carry every promised family.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, fam := range []string{
		"ides_server_requests_total", "ides_server_request_seconds",
		"ides_server_active_conns", "ides_server_hosts",
		"ides_model_fit_seconds", "ides_model_drift", "ides_model_delta_queue_depth",
		"ides_query_batch_seconds", "ides_query_knn_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

func TestServerHistoryRecording(t *testing.T) {
	s, _, dir := observedServer(t)
	// One more frame: a self-pair, an unknown target and an RTT ValidRTT
	// refuses beside one valid entry (the ring's own L1→L3 value, so the
	// fit stays exact). Its record holds only the valid entry.
	mixed := &wire.ReportRTT{From: "L1", Entries: []wire.RTTEntry{
		{To: "L1", RTTMillis: 5}, {To: "nowhere", RTTMillis: 5},
		{To: "L2", RTTMillis: 1e200}, {To: "L3", RTTMillis: 1},
	}}
	if typ, _ := s.Handle(wire.TypeReportRTT, mixed.Encode(nil)); typ != wire.TypeAck {
		t.Fatalf("mixed report answered %v", typ)
	}
	if _, err := s.Refit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs, fits, sums int
	var reports []wire.ReportRTT
	for _, r := range recs {
		switch r := r.(type) {
		case *telemetry.ConfigRecord:
			cfgs++
			if r.Dim != 3 || len(r.Landmarks) != 4 || r.Solver != "batch" {
				t.Errorf("config record %+v", r)
			}
		case *telemetry.ReportRecord:
			reports = append(reports, r.Report)
		case *telemetry.EventRecord:
			if r.Kind == telemetry.EventFit {
				fits++
			}
		case *telemetry.EpochSummaryRecord:
			sums++
			// The rank-3 SVD reconstructs the ring exactly, so the Eq. 10
			// errors over the 12 measured pairs are ~0.
			if r.Samples != 12 || r.MaxAbsRel > 1e-6 {
				t.Errorf("epoch summary %+v", r)
			}
		}
	}
	if cfgs != 1 || len(reports) != 5 || fits != 1 || sums != 1 {
		t.Fatalf("record counts: %d configs, %d reports, %d fits, %d summaries; want 1/5/1/1",
			cfgs, len(reports), fits, sums)
	}
	// One record per accepted frame: the ring's four of three entries
	// each, then the mixed frame's one valid entry.
	for i, rep := range reports[:4] {
		if rep.From != s.cfg.Landmarks[i] || len(rep.Entries) != 3 {
			t.Errorf("report record %d: %+v", i, rep)
		}
	}
	if got := reports[4]; got.From != "L1" || !reflect.DeepEqual(got.Entries, mixed.Entries[3:]) {
		t.Errorf("mixed frame recorded as %+v, want only its valid entry", got)
	}
	// The config record must come first so replays know the topology
	// before the first measurement.
	if _, ok := recs[0].(*telemetry.ConfigRecord); !ok {
		t.Fatalf("first record is %T, want ConfigRecord", recs[0])
	}
}

func TestServerWithoutTelemetryUnaffected(t *testing.T) {
	// The nil-sink path is the production default; it must behave
	// identically (this mostly guards against nil derefs).
	s := ringLandmarks(t, core.SVD)
	if _, err := s.Refit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.metrics != nil || s.history != nil {
		t.Fatal("sinks should be nil when unconfigured")
	}
}
