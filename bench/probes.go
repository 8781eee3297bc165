package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/harness"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/query/knnindex"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// Layer probes: after a traced window, on an idle server, the bench
// calls straight into each layer's exported functions with the requests
// the window recorded. They are measured from outside and touch nothing
// but exported API; each takes tens to hundreds of milliseconds.

// prober writes probe results into m; div shrinks every iteration count
// (-quick runs the same probes on a twentieth of the work).
type prober struct {
	m   map[string]float64
	div int
}

// meanNs runs fn iters/div times and returns the mean ns per call.
func (p prober) meanNs(iters int, fn func(i int)) float64 {
	iters = max(iters/p.div, 1)
	t := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(iters)
}

// timeEach times each of iters/div calls and returns the latencies sorted.
func (p prober) timeEach(iters int, fn func(i int)) []time.Duration {
	lat := make([]time.Duration, max(iters/p.div, 1))
	for i := range lat {
		t := time.Now()
		fn(i)
		lat[i] = time.Since(t)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat
}

// quantileOfUs is the q-quantile of sorted latencies, in µs.
func quantileOfUs(sorted []time.Duration, q float64) float64 {
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]) / 1e3
}

// quantileUs times each of iters/div calls and returns the q-quantile in µs.
func (p prober) quantileUs(iters int, q float64, fn func(i int)) float64 {
	return quantileOfUs(p.timeEach(iters, fn), q)
}

// codecs measures the three codecs in memory; it needs no
// deployment, so every workload's traced run reports it.
func (p prober) codecs() {
	m := p.m
	var frame, scratch, payload []byte
	rd := bytes.NewReader(nil)
	roundtrip := func(t wire.MsgType, p []byte) []byte {
		frame = wire.AppendFrame(frame[:0], t, p)
		rd.Reset(frame)
		var err error
		if _, payload, scratch, err = wire.ReadFrameInto(rd, scratch); err != nil {
			panic(err) // a frame this code just built
		}
		return payload
	}

	var qbuf, rbuf []byte
	q := wire.QueryDist{From: "host-000017", To: "host-004711"}
	resp := wire.Distance{Found: true, Millis: 42.5}
	m["wire.point_codec_ns"] = p.meanNs(200_000, func(int) {
		qbuf = q.Encode(qbuf[:0])
		if _, _, err := wire.QueryDistView(roundtrip(wire.TypeQueryDist, qbuf)); err != nil {
			panic(err)
		}
		rbuf = resp.Encode(rbuf[:0])
		if _, err := wire.ParseDistance(roundtrip(wire.TypeDistance, rbuf)); err != nil {
			panic(err)
		}
	})

	targets := make([]string, batchTargets)
	for i := range targets {
		targets[i] = fmt.Sprintf("host-%06d", i*37)
	}
	bq := wire.QueryBatch{From: "host-000017", Targets: targets}
	br := wire.Distances{SrcFound: true, Results: make([]wire.DistResult, batchTargets), Epoch: 3}
	m["wire.batch_codec_us"] = p.meanNs(5_000, func(int) {
		qbuf = bq.Encode(qbuf[:0])
		if _, err := wire.DecodeQueryBatch(roundtrip(wire.TypeQueryBatch, qbuf)); err != nil {
			panic(err)
		}
		rbuf = br.Encode(rbuf[:0])
		if _, err := wire.DecodeDistances(roundtrip(wire.TypeDistances, rbuf)); err != nil {
			panic(err)
		}
	}) / 1e3

	row := make([]float64, modelDim)
	for i := range row {
		row[i] = float64(i) + 0.5
	}
	peers := []wire.LandmarkVec{{Addr: "peer-1", Out: row, In: row}, {Addr: "peer-2", Out: row, In: row}, {Addr: "peer-3", Out: row, In: row}}
	ge := wire.GossipExchange{From: "peer-0", Out: row, In: row, RTTMillis: 12.5, Peers: peers}
	gr := wire.GossipReply{Applied: true, Out: row, In: row, Peers: peers}
	m["wire.gossip_codec_ns"] = p.meanNs(50_000, func(int) {
		qbuf = ge.Encode(qbuf[:0])
		if _, err := wire.DecodeGossipExchange(roundtrip(wire.TypeGossipExchange, qbuf)); err != nil {
			panic(err)
		}
		rbuf = gr.Encode(rbuf[:0])
		if _, err := wire.DecodeGossipReply(roundtrip(wire.TypeGossipReply, rbuf)); err != nil {
			panic(err)
		}
	})

	sgd, err := solve.SGDOptions{}.Normalize()
	if err != nil {
		panic(err)
	}
	xi, yi := append([]float64(nil), row...), append([]float64(nil), row...)
	m["solve.peer_step_ns"] = p.meanNs(200_000, func(int) {
		solve.PeerStep(xi, yi, row, row, 40, sgd, true)
	})
}

// transport measures the empty-handler round trip on the workload's
// own pool, on a lockstep pool, and with a dial per call.
func (p prober) transport(ctx context.Context, d *deployment) error {
	m := p.m
	ping := (&wire.Ping{Token: 7}).Encode(nil)
	pingOn := func(pool *transport.Pool, iters int) (float64, error) {
		var scratch []byte
		var err error
		us := p.quantileUs(iters, 0.5, func(int) {
			var e error
			if _, _, scratch, e = pool.CallInto(ctx, d.addr, wire.TypePing, ping, scratch); e != nil {
				err = e
			}
		})
		return us, err
	}
	var err error
	if m["transport.ping_rtt_p50_us"], err = pingOn(d.pool, 20_000); err != nil {
		return err
	}
	lockstep, err := transport.NewPool(transport.PoolConfig{Dialer: d.dialer, MuxConns: -1})
	if err != nil {
		return err
	}
	defer lockstep.Close()
	if m["transport.lockstep_rtt_p50_us"], err = pingOn(lockstep, 20_000); err != nil {
		return err
	}
	m["transport.dial_call_p50_us"] = p.quantileUs(1_000, 0.5, func(int) {
		if _, _, e := transport.Call(ctx, d.dialer, d.addr, wire.TypePing, ping); e != nil {
			err = e
		}
	})
	return err
}

// query replays the recorded requests straight into the engine the
// window's server was using, and into a knnindex built from the same
// vectors (Index.Search alone: the gap to knn_indexed is the engine's
// live verification).
func (p prober) query(d *deployment, record []request) {
	m := p.m
	eng := d.srv.Engine()
	var points, batches, knns []request
	for _, r := range record {
		switch r.kind {
		case kindPoint:
			points = append(points, r)
		case kindBatch:
			batches = append(batches, r)
		case kindKNN:
			knns = append(knns, r)
		}
	}
	// Mixes without a class still get its probe, from seeded requests.
	gen := newReqGen(d.cfg.seed, 0, phaseAccuracy, d.cfg.hosts, mix{kindPoint, kindBatch, kindKNN, kindKNN})
	for len(points) < 256 || len(batches) < 64 || len(knns) < 256 {
		r := gen.next()
		r.to = append([]int32(nil), r.to...)
		switch r.kind {
		case kindPoint:
			points = append(points, r)
		case kindBatch:
			batches = append(batches, r)
		case kindKNN:
			knns = append(knns, r)
		}
	}

	type pair struct{ from, to []byte }
	pairs := make([]pair, len(points))
	for i, r := range points {
		pairs[i] = pair{[]byte(d.names[r.from]), []byte(d.names[r.to[0]])}
	}
	m["query.estimate_pair_ns"] = p.meanNs(200_000, func(i int) {
		pr := pairs[i%len(pairs)]
		eng.EstimatePair(pr.from, pr.to)
	})

	batchTargetNames := make([][]string, len(batches))
	for i, r := range batches {
		for _, t := range r.to {
			batchTargetNames[i] = append(batchTargetNames[i], d.names[t])
		}
	}
	m["query.estimate_batch_us"] = p.meanNs(2_000, func(i int) {
		j := i % len(batches)
		eng.EstimateBatch(d.vecs[batches[j].from], batchTargetNames[j])
	}) / 1e3

	t := time.Now()
	eng.BuildKNNIndex()
	m["query.knn_index_build_ms"] = float64(time.Since(t)) / 1e6

	knn := func(i int) (core.Vectors, query.KNNOptions) {
		r := knns[i%len(knns)]
		return d.vecs[r.from], query.KNNOptions{Exclude: d.names[r.from]}
	}
	lat := p.timeEach(2_000, func(i int) {
		src, opts := knn(i)
		eng.KNearest(src, knnK, opts)
	})
	m["query.knn_indexed_p50_us"] = quantileOfUs(lat, 0.5)
	m["query.knn_indexed_p99_us"] = quantileOfUs(lat, 0.99)
	m["query.knn_exact_p50_us"] = p.quantileUs(100, 0.5, func(i int) {
		src, opts := knn(i)
		eng.KNearestExact(src, knnK, opts)
	})

	pts := make([]knnindex.Point, len(d.vecs))
	for i, v := range d.vecs {
		pts[i] = knnindex.Point{Addr: d.names[i], Vec: v.In}
	}
	t = time.Now()
	idx := knnindex.Build(pts, modelDim)
	m["knnindex.build_ms"] = float64(time.Since(t)) / 1e6
	m["knnindex.search_p50_us"] = p.quantileUs(2_000, 0.5, func(i int) {
		src, opts := knn(i)
		idx.Search(src.Out, knnK, knnindex.SearchOptions{Exclude: opts.Exclude})
	})

	// Directory writes and reads on a scratch directory of the same
	// population (the live one must keep serving what was registered).
	scratch := query.New(query.Config{})
	m["query.directory_put_ns"] = p.meanNs(len(d.vecs), func(i int) {
		scratch.PutEpoch(d.names[i], d.vecs[i], d.epoch)
	})
	scratch.AdvanceEpoch(d.epoch)
	m["query.directory_get_ns"] = p.meanNs(200_000, func(i int) {
		scratch.GetAt(d.names[i%len(d.names)], d.epoch)
	})
}

// model measures the offline model code: the landmark fit, the
// batch solver's delta ingestion, and host placement one by one and in
// bulk.
func (p prober) model(d *deployment) error {
	m := p.m
	lm := mat.NewDense(numLandmarks, numLandmarks)
	var deltas []solve.Delta
	for i := 0; i < numLandmarks; i++ {
		for j := 0; j < numLandmarks; j++ {
			if i != j {
				lm.Set(i, j, d.cfg.topo.RTT(i, j))
				deltas = append(deltas, solve.Delta{From: i, To: j, Millis: d.cfg.topo.RTT(i, j)})
			}
		}
	}
	var err error
	m["core.fit_ms"] = p.quantileUs(20, 0.5, func(int) {
		if _, e := core.FitSVD(lm, modelDim, d.cfg.seed); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}
	batch, err := solve.NewBatch(numLandmarks, core.FitOptions{Dim: modelDim, Seed: d.cfg.seed})
	if err != nil {
		return err
	}
	m["solve.batch_apply_ms"] = p.quantileUs(200, 0.5, func(int) {
		if _, e := batch.Apply(deltas); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}

	n := min(len(d.vecs), 4096)
	dout, din := mat.NewDense(n, numLandmarks), mat.NewDense(n, numLandmarks)
	for h := 0; h < n; h++ {
		for l := 0; l < numLandmarks; l++ {
			dout.Set(h, l, d.cfg.topo.RTT(site(h), l))
			din.Set(h, l, d.cfg.topo.RTT(l, site(h)))
		}
	}
	m["core.solve_host_us"] = p.meanNs(n, func(h int) {
		if _, e := d.model.SolveHost(dout.Row(h), din.Row(h)); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := d.model.PlaceAll(dout, din); err != nil {
		return err
	}
	m["core.place_all_hosts_per_s"] = float64(n) / time.Since(t).Seconds()
	return nil
}

// gossip measures the fabric and the peer's local paths on the
// fleet the traced window just drove.
func (p prober) gossip(ctx context.Context, g *harness.GossipCluster) error {
	m := p.m
	names := g.PeerNames()
	rng := rand.New(rand.NewSource(1))
	host, err := g.Net.Host(names[0])
	if err != nil {
		return err
	}
	target := func() string { return names[1+rng.Intn(len(names)-1)] }
	m["simnet.dial_p50_us"] = p.quantileUs(2_000, 0.5, func(int) {
		conn, e := host.DialContext(ctx, "tcp", target())
		if e != nil {
			err = e
			return
		}
		conn.Close()
	})
	if err != nil {
		return err
	}
	ping := (&wire.Ping{Token: 7}).Encode(nil)
	m["simnet.ping_rtt_p50_us"] = p.quantileUs(2_000, 0.5, func(int) {
		if _, _, e := transport.Call(ctx, host, target(), wire.TypePing, ping); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	// One measurement-free exchange, dial included: what Peer.Estimate
	// pays on a cache miss. The peer's handler is not exported and has
	// no latency histogram, so this is the closest outside view of it;
	// subtract simnet.ping_rtt_p50_us for the handler's share.
	fetch := (&wire.GossipExchange{From: names[0], RTTMillis: -1}).Encode(nil)
	m["peer.exchange_call_p50_us"] = p.quantileUs(2_000, 0.5, func(int) {
		if _, _, e := transport.Call(ctx, host, target(), wire.TypeGossipExchange, fetch); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	first := g.Peer(0)
	if nb := first.Neighbors(); len(nb) > 0 {
		m["peer.estimate_local_ns"] = p.meanNs(100_000, func(i int) { first.EstimateLocal(nb[i%len(nb)]) })
	}
	var churn uint64
	for i := 0; i < g.NumPeers(); i++ {
		churn += g.Peer(i).Stats().Churn
	}
	m["peer.neighbor_churn"] = float64(churn)
	return nil
}
