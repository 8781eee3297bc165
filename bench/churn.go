package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/wire"
)

// churnJitter is the ± relative noise on reported RTTs.
const churnJitter = 0.05

// churn is the write side of refit-churn: a reporter that keeps the
// refitter busy, and the recovery every host population runs when the
// epoch moves.
type churn struct {
	d    *deployment
	seed int64
	// every is the reporter's cadence: one landmark's jittered RTT row
	// per tick.
	every time.Duration

	stop     context.CancelFunc
	done     chan struct{}
	reports  int
	reportEr error

	// recoveries is written by the one read caller, read after it stops.
	recoveries []time.Duration
}

// startReporter sends one jittered landmark report per tick until
// stopReporter.
func (c *churn) startReporter(ctx context.Context) {
	rctx, cancel := context.WithCancel(ctx)
	c.stop, c.done = cancel, make(chan struct{})
	rng := rand.New(rand.NewSource(streamSeed(c.seed, 0, phaseJitter)))
	jitter := func() float64 { return 1 + churnJitter*(2*rng.Float64()-1) }
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.every)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-rctx.Done():
				return
			case <-tick.C:
			}
			if err := c.d.report(rctx, i%numLandmarks, jitter); err != nil {
				if rctx.Err() == nil {
					c.reportEr = err
				}
				return
			}
			c.reports++
		}
	}()
}

func (c *churn) stopReporter() error {
	c.stop()
	<-c.done
	return c.reportEr
}

// recover is the callers' onStale: re-fetch the model, re-solve and
// re-register every host, as the client library does when a reply's
// epoch stamp moves. A refit landing mid-way restarts it.
func (c *churn) recover(ctx context.Context, tr *tracer) error {
	t := time.Now()
	tr.begin(spRecover)
	defer tr.end()
	const maxRestarts = 10
	for attempt := 0; attempt < maxRestarts; attempt++ {
		err := c.d.placeOnce(ctx, tr)
		if err == nil {
			c.recoveries = append(c.recoveries, time.Since(t))
			return nil
		}
		if !errors.Is(err, errEpochMoved) {
			return err
		}
	}
	return fmt.Errorf("model epoch kept moving across %d recovery attempts", maxRestarts)
}

func (c *churn) recoveryP50() time.Duration {
	if len(c.recoveries) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), c.recoveries...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// finalAccuracy makes the accuracy figures seed-deterministic after a
// window whose refit timing was not: drain the pipeline, report every
// landmark row once without jitter, refit, re-register, then score
// cfg.scored served point estimates against ground truth. Every
// answer is also held to the offline result.
func (c *churn) finalAccuracy(ctx context.Context) (relErr []float64, refit time.Duration, err error) {
	d := c.d
	if err := d.srv.Quiesce(ctx); err != nil {
		return nil, 0, err
	}
	for i := range d.lmNames {
		if err := d.report(ctx, i, nil); err != nil {
			return nil, 0, err
		}
	}
	t := time.Now()
	if _, err := d.srv.Refit(ctx); err != nil {
		return nil, 0, err
	}
	refit = time.Since(t)
	if err := d.placeAll(ctx); err != nil {
		return nil, 0, err
	}
	probe := &caller{d: d}
	gen := newReqGen(c.seed, 0, phaseAccuracy, d.cfg.hosts, mixPoint)
	var qbuf, scratch []byte
	for len(relErr) < d.cfg.scored {
		req := gen.next()
		if req.from == req.to[0] {
			continue
		}
		q := wire.QueryDist{From: d.names[req.from], To: d.names[req.to[0]]}
		qbuf = q.Encode(qbuf[:0])
		typ, payload, sc, err := d.pool.CallInto(ctx, d.addr, wire.TypeQueryDist, qbuf, scratch)
		scratch = sc
		if err != nil {
			return nil, 0, err
		}
		if typ != wire.TypeDistance {
			return nil, 0, fmt.Errorf("final sample: QueryDist answered %v", typ)
		}
		dist, err := wire.ParseDistance(payload)
		if err != nil {
			return nil, 0, err
		}
		if !dist.Found {
			return nil, 0, fmt.Errorf("final sample: %s->%s not found after clean re-registration",
				d.names[req.from], d.names[req.to[0]])
		}
		if bad := probe.checkPoint(req, dist, false); bad != "" {
			return nil, 0, errors.New("final sample: " + bad)
		}
		relErr = append(relErr, stats.RelativeError(d.truth(int(req.from), int(req.to[0])), dist.Millis))
	}
	return relErr, refit, nil
}
