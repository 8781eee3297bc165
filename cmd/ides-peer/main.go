// Command ides-peer runs one host of the decentralized, landmark-free
// IDES mode: a DMFSGD gossip loop that maintains this host's own
// coordinate rows by periodic measure-and-exchange rounds with a
// bounded random set of other peers. There is no information server in
// the data path — distance estimates come straight from exchanged
// coordinates — and an optional rendezvous directory (ides-server
// -role rendezvous) is used only to discover peers.
//
// Usage:
//
//	# bootstrap from a rendezvous directory:
//	ides-peer -self host3.example.net:4300 -listen :4300 \
//	    -rendezvous ides.example.net:4100 -interval 10s
//
//	# or with a static peer list, no directory at all:
//	ides-peer -self host3.example.net:4300 -listen :4300 \
//	    -neighbors host1.example.net:4300,host2.example.net:4300
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"time"

	"github.com/ides-go/ides/internal/cli"
	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/peer"
	"github.com/ides-go/ides/internal/transport"
)

func main() {
	self := flag.String("self", "", "this peer's address as other peers dial it (required)")
	listen := flag.String("listen", ":4300", "gossip service listen address")
	rendezvous := flag.String("rendezvous", "", "comma-separated rendezvous directory addresses for bootstrap and periodic re-announcement")
	neighbors := flag.String("neighbors", "", "comma-separated static bootstrap peer addresses (at least one of -rendezvous or -neighbors is required)")
	interval := flag.Duration("interval", 10*time.Second, "gossip round interval")
	dim := flag.Int("dim", 8, "coordinate dimensionality (must match the rest of the fleet)")
	alg := flag.String("alg", "nmf", "factorization variant: nmf (nonnegative coordinates) or svd")
	seed := flag.Int64("seed", 0, "randomness seed (0 derives one from the clock)")
	maxNeighbors := flag.Int("max-neighbors", 0, "neighbor table bound (0 = default 32)")
	sampleSize := flag.Int("sample-size", 0, "neighbor entries gossiped per exchange (0 = default 3)")
	poolFlags := cli.RegisterPoolFlags(flag.CommandLine, 2, 4, 2*time.Minute, "keep above -interval so warm connections survive between rounds")
	metricsFlags := cli.RegisterMetricsFlags(flag.CommandLine, "gossip round, churn and drift gauges")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *self == "" {
		logger.Fatal("ides-peer: -self is required")
	}
	rdvList := cli.List(*rendezvous)
	nbrList := cli.List(*neighbors)
	if len(rdvList) == 0 && len(nbrList) == 0 {
		logger.Fatal("ides-peer: at least one of -rendezvous or -neighbors is required")
	}
	algorithm, err := core.ParseAlgorithm(*alg)
	if err != nil {
		logger.Fatalf("ides-peer: %v", err)
	}
	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}

	dialer := &net.Dialer{Timeout: 10 * time.Second}
	p, err := peer.New(peer.Config{
		Self:            *self,
		Dim:             *dim,
		Algorithm:       algorithm,
		Seed:            s,
		MaxNeighbors:    *maxNeighbors,
		SampleSize:      *sampleSize,
		RendezvousAddrs: rdvList,
		Dialer:          dialer,
		Pinger:          &transport.TCPPinger{Dialer: dialer},
		Pool:            poolFlags.Config(dialer),
		Metrics:         metricsFlags.Registry(),
		Logger:          logger,
	})
	if err != nil {
		logger.Fatalf("ides-peer: %v", err)
	}
	defer p.Close()
	for _, n := range nbrList {
		p.AddNeighbor(n)
	}

	stopMetrics, err := metricsFlags.Serve(logger, "ides-peer")
	if err != nil {
		logger.Fatalf("ides-peer: %v", err)
	}
	defer stopMetrics() //nolint:errcheck

	ln, err := cli.Listen(*listen)
	if err != nil {
		logger.Fatalf("ides-peer: %v", err)
	}
	logger.Printf("ides-peer: %s gossiping on %s every %v (d=%d, %s)",
		*self, ln.Addr(), *interval, *dim, algorithm)

	ctx, stop := cli.SignalContext()
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(ctx, ln) }()

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			logger.Print("ides-peer: shut down")
			return
		case err := <-serveErr:
			if err != nil && !errors.Is(err, context.Canceled) {
				logger.Fatalf("ides-peer: serve: %v", err)
			}
			logger.Print("ides-peer: shut down")
			return
		case <-ticker.C:
			if err := p.GossipRound(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Printf("ides-peer: gossip round: %v", err)
			}
		}
	}
}
