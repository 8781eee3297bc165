package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

const (
	numLandmarks = 20
	modelDim     = 8
	// registrars is how many goroutines push RegisterHost during set-up;
	// with the pool's two mux connections that keeps both pipelined.
	registrars = 8
)

// deployConfig sizes one serving deployment.
type deployConfig struct {
	hosts int
	seed  int64
	// topo is the generated dataset (numLandmarks + hosts sites). It is
	// the benchmark's input, generated once per process and shared by
	// every set-up, so its cost is not part of setup_s.
	topo *topology.Topology
	// scored is how many served estimates are scored against ground
	// truth (accuracySample; fewer under -quick).
	scored int
	// refitMinInterval is the server's background refit debounce. The
	// read-only workloads never report after set-up, so only refit-churn
	// sets it.
	refitMinInterval time.Duration
	// metrics, when non-nil, is attached to the server and the pool
	// (traced runs only: the untraced numbers carry no telemetry cost).
	metrics *telemetry.Registry
}

// stageTimes are the set-up stages a traced run reports per layer.
type stageTimes struct {
	refit, register time.Duration
}

// deployment is the paper's pipeline stood up for real on loopback: a
// generated topology, a served landmark model fitted from reported
// landmark RTTs, every ordinary host solved against it and registered,
// and the k-NN index built.
type deployment struct {
	cfg     deployConfig
	lmNames []string
	names   []string // host i's directory address; topology site numLandmarks+i
	srv     *server.Server
	addr    string
	dialer  *net.Dialer
	pool    *transport.Pool

	// The bench's own view of what it registered: the reference every
	// served answer is checked against.
	model *core.Model
	epoch uint64
	vecs  []core.Vectors

	stages stageTimes
	setup  time.Duration

	cancel context.CancelFunc
	served chan struct{}
}

// site maps host index to topology site (landmarks occupy the first
// numLandmarks sites, which the generator spreads over distinct stubs).
func site(host int) int { return numLandmarks + host }

// truth is the ground-truth RTT between two hosts.
func (d *deployment) truth(from, to int) float64 { return d.cfg.topo.RTT(site(from), site(to)) }

// generateDataset builds the fixed topology for a deployment of hosts
// ordinary hosts.
func generateDataset(hosts int) (*topology.Topology, error) {
	total := numLandmarks + hosts
	return topology.Generate(topology.Config{
		Seed:     datasetSeed,
		NumHosts: total,
		// The generator keeps a stub-pair distance matrix; one stub per
		// ~2k sites keeps it a few thousand squared at 100k hosts (the
		// same rule internal/harness uses).
		HostsPerStub: (total + 2048) / 2048,
	})
}

// deploy runs the whole set-up and returns a serving deployment.
func deploy(ctx context.Context, cfg deployConfig) (_ *deployment, err error) {
	start := time.Now()
	d := &deployment{cfg: cfg, dialer: &net.Dialer{Timeout: 5 * time.Second}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	d.lmNames = make([]string, numLandmarks)
	for i := range d.lmNames {
		d.lmNames[i] = fmt.Sprintf("lm-%02d", i)
	}
	d.names = make([]string, cfg.hosts)
	for i := range d.names {
		d.names[i] = fmt.Sprintf("host-%06d", i)
	}

	d.srv, err = server.New(server.Config{
		Landmarks:        d.lmNames,
		Dim:              modelDim,
		Seed:             cfg.seed,
		RefitMinInterval: cfg.refitMinInterval,
		Metrics:          cfg.metrics,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	sctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.srv.Serve(sctx, ln) //nolint:errcheck // returns when sctx is cancelled
	}()

	// Default PoolConfig: the v2 mux path users get, two connections.
	d.pool, err = transport.NewPool(transport.PoolConfig{Dialer: d.dialer})
	if err != nil {
		return nil, err
	}
	d.pool.RegisterMetrics(cfg.metrics)

	for i := range d.lmNames {
		if err := d.report(ctx, i, nil); err != nil {
			return nil, err
		}
	}

	t := time.Now()
	if _, err := d.srv.Refit(ctx); err != nil {
		return nil, err
	}
	d.stages.refit = time.Since(t)

	if err := d.placeAll(ctx); err != nil {
		return nil, err
	}

	d.srv.Engine().BuildKNNIndex() // false below the index threshold: the scan serves
	d.setup = time.Since(start)
	return d, nil
}

// report sends landmark from's full RTT row, as its agent would. jitter,
// when non-nil, scales each entry (refit-churn's noisy measurements).
func (d *deployment) report(ctx context.Context, from int, jitter func() float64) error {
	rep := &wire.ReportRTT{From: d.lmNames[from], Entries: make([]wire.RTTEntry, 0, numLandmarks-1)}
	for j := range d.lmNames {
		if j == from {
			continue
		}
		ms := d.cfg.topo.RTT(from, j)
		if jitter != nil {
			ms *= jitter()
		}
		rep.Entries = append(rep.Entries, wire.RTTEntry{To: d.lmNames[j], RTTMillis: ms})
	}
	typ, _, err := d.pool.Call(ctx, d.addr, wire.TypeReportRTT, rep.Encode(nil))
	if err != nil {
		return fmt.Errorf("report %s: %w", rep.From, err)
	}
	if typ != wire.TypeAck {
		return fmt.Errorf("report %s answered %v", rep.From, typ)
	}
	return nil
}

// fetchModel gets the served model over the wire and rebuilds the
// core.Model a client library would solve against.
func (d *deployment) fetchModel(ctx context.Context) (*core.Model, uint64, error) {
	typ, payload, err := d.pool.Call(ctx, d.addr, wire.TypeGetModel, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("GetModel: %w", err)
	}
	if typ != wire.TypeModel {
		return nil, 0, fmt.Errorf("GetModel answered %v", typ)
	}
	wm, err := wire.DecodeModel(payload)
	if err != nil {
		return nil, 0, err
	}
	if len(wm.Landmarks) != numLandmarks {
		return nil, 0, fmt.Errorf("model has %d landmarks, want %d", len(wm.Landmarks), numLandmarks)
	}
	x, y := mat.NewDense(numLandmarks, int(wm.Dim)), mat.NewDense(numLandmarks, int(wm.Dim))
	for i, lm := range wm.Landmarks {
		if lm.Addr != d.lmNames[i] {
			return nil, 0, fmt.Errorf("model landmark %d is %q, want %q", i, lm.Addr, d.lmNames[i])
		}
		x.SetRow(i, lm.Out)
		y.SetRow(i, lm.In)
	}
	return &core.Model{X: x, Y: y}, wm.Epoch, nil
}

// errEpochMoved reports that a refit landed while hosts were being
// re-registered; the caller starts over against the newer model.
var errEpochMoved = errors.New("model epoch moved during registration")

// placeAll is what every ordinary host does after a (re)fit: fetch the
// model, solve its vectors from its landmark RTTs, register them. It
// leaves d.model/d.epoch/d.vecs describing exactly what the directory
// now holds.
func (d *deployment) placeAll(ctx context.Context) error {
	const maxRestarts = 10
	for attempt := 0; attempt < maxRestarts; attempt++ {
		err := d.placeOnce(ctx, nil)
		if !errors.Is(err, errEpochMoved) {
			return err
		}
	}
	return fmt.Errorf("model epoch kept moving across %d registration attempts", maxRestarts)
}

func (d *deployment) placeOnce(ctx context.Context, tr *tracer) error {
	tr.begin(spCall)
	model, epoch, err := d.fetchModel(ctx)
	tr.end()
	if err != nil {
		return err
	}

	tr.begin(spSolve)
	vecs := make([]core.Vectors, d.cfg.hosts)
	dout, din := make([]float64, numLandmarks), make([]float64, numLandmarks)
	for h := range vecs {
		for l := 0; l < numLandmarks; l++ {
			dout[l] = d.cfg.topo.RTT(site(h), l)
			din[l] = d.cfg.topo.RTT(l, site(h))
		}
		if vecs[h], err = model.SolveHost(dout, din); err != nil {
			return fmt.Errorf("solving %s: %w", d.names[h], err)
		}
	}
	tr.end()

	t := time.Now()
	tr.begin(spCall)
	err = d.registerAll(ctx, vecs, epoch)
	tr.end()
	if err != nil {
		return err
	}
	d.stages.register = time.Since(t)
	d.model, d.epoch, d.vecs = model, epoch, vecs
	return nil
}

// registerAll pushes every host's vectors with `registrars` concurrent
// callers over the pool.
func (d *deployment) registerAll(ctx context.Context, vecs []core.Vectors, epoch uint64) error {
	errs := make([]error, registrars)
	var wg sync.WaitGroup
	for w := 0; w < registrars; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf, scratch []byte
			for h := w; h < len(vecs); h += registrars {
				reg := wire.RegisterHost{Addr: d.names[h], Out: vecs[h].Out, In: vecs[h].In, Epoch: epoch}
				buf = reg.Encode(buf[:0])
				typ, _, sc, err := d.pool.CallInto(ctx, d.addr, wire.TypeRegisterHost, buf, scratch)
				scratch = sc
				if err != nil {
					var werr *wire.Error
					if errors.As(err, &werr) && werr.Code == wire.CodeStaleEpoch {
						err = errEpochMoved
					}
					errs[w] = fmt.Errorf("register %s: %w", d.names[h], err)
					return
				}
				if typ != wire.TypeAck {
					errs[w] = fmt.Errorf("register %s answered %v", d.names[h], typ)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops the server and releases the pool, waiting for the serve
// loop to exit.
func (d *deployment) close() {
	if d.pool != nil {
		d.pool.Close()
	}
	if d.cancel != nil {
		d.cancel()
		<-d.served
	}
	if d.srv != nil {
		d.srv.Close()
	}
}
