// Command ides-client joins an IDES deployment as an ordinary host and
// answers distance queries from the command line.
//
// Usage:
//
//	# measure k landmarks, solve vectors, register, estimate:
//	ides-client -self me.example.net -server ides.example.net:4100 \
//	    -k 12 -to peer-a.example.net
//
//	# mirror selection among candidates:
//	ides-client -self me.example.net -server ides.example.net:4100 \
//	    -nearest mirror1:80,mirror2:80,mirror3:80
//
//	# replicated serving tier: spread reads over every endpoint and
//	# survive a leader kill without an error:
//	ides-client -self me.example.net \
//	    -servers ides0.example.net:4100,ides1.example.net:4100 -knn 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"github.com/ides-go/ides/internal/cli"
	"github.com/ides-go/ides/internal/client"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/transport"
)

func main() {
	self := flag.String("self", "", "this host's address for the directory (required)")
	serverFlags := cli.RegisterServersFlag(flag.CommandLine)
	k := flag.Int("k", 0, "number of landmarks to measure (0 = all)")
	samples := flag.Int("samples", 4, "echo probes per landmark")
	seed := flag.Int64("seed", 0, "landmark subset selection seed")
	to := flag.String("to", "", "estimate distance to this host after registering")
	from := flag.String("from", "", "estimate distance from this host after registering")
	nearest := flag.String("nearest", "", "comma-separated candidates; print the nearest (one batch round trip)")
	knn := flag.Int("knn", 0, "print the k registered hosts estimated closest to this one (one round trip)")
	listen := flag.String("listen", "", "also answer echo probes on this address, so other hosts can use this one as a §5.2 reference point (keeps running)")
	timeout := flag.Duration("timeout", 30*time.Second, "overall timeout")
	poolFlags := cli.RegisterPoolFlags(flag.CommandLine, 4, 16, 60*time.Second, "keep below the server's -idle-timeout")
	metricsFlags := cli.RegisterMetricsFlags(flag.CommandLine, "connection-pool and failover counters; useful with -listen")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *self == "" {
		logger.Fatal("ides-client: -self is required")
	}
	serverAddr, servers, err := serverFlags.Resolve()
	if err != nil {
		logger.Fatalf("ides-client: %v", err)
	}

	dialer := &net.Dialer{Timeout: 10 * time.Second}
	pool, err := poolFlags.Build(dialer)
	if err != nil {
		logger.Fatalf("ides-client: %v", err)
	}
	defer pool.Close()
	c, err := client.New(client.Config{
		Self:    *self,
		Server:  serverAddr,
		Servers: servers,
		Dialer:  dialer,
		Pinger:  &transport.TCPPinger{Dialer: dialer},
		Samples: *samples,
		K:       *k,
		Seed:    *seed,
		Pool:    pool,
	})
	if err != nil {
		logger.Fatalf("ides-client: %v", err)
	}
	if reg := metricsFlags.Registry(); reg != nil {
		pool.RegisterMetrics(reg)
		if cp := c.Cluster(); cp != nil {
			cp.RegisterMetrics(reg)
		}
	}
	stopMetrics, err := metricsFlags.Serve(logger, "ides-client")
	if err != nil {
		logger.Fatalf("ides-client: %v", err)
	}
	defer stopMetrics() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := c.Bootstrap(ctx); err != nil {
		logger.Fatalf("ides-client: bootstrap: %v", err)
	}
	vec, _ := c.Vectors()
	if epoch := c.Epoch(); epoch != 0 {
		logger.Printf("ides-client: registered %s (d=%d, model epoch %d)", *self, len(vec.Out), epoch)
	} else {
		logger.Printf("ides-client: registered %s (d=%d)", *self, len(vec.Out))
	}

	if *to != "" {
		d, err := c.EstimateTo(ctx, *to)
		if err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
		fmt.Printf("%s -> %s: %.2f ms (estimated)\n", *self, *to, d)
	}
	if *from != "" {
		d, err := c.EstimateFrom(ctx, *from)
		if err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
		fmt.Printf("%s -> %s: %.2f ms (estimated)\n", *from, *self, d)
	}
	if *nearest != "" {
		best, dist, err := c.Nearest(ctx, cli.List(*nearest))
		if err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
		fmt.Printf("nearest: %s (%.2f ms estimated)\n", best, dist)
	}
	if *knn > 0 {
		neighbors, err := c.KNearest(ctx, *knn)
		if err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
		for i, nb := range neighbors {
			fmt.Printf("neighbor %d: %s (%.2f ms estimated)\n", i+1, nb.Addr, nb.Millis)
		}
	}

	if *listen != "" {
		// Serve echo probes indefinitely so other hosts can measure their
		// distance to this one and use it as a reference point (§5.2).
		echo, err := landmark.New(landmark.Config{
			Self:   *self,
			Peers:  []string{serverFlags.Primary()}, // unused by ServeEcho
			Server: serverFlags.Primary(),
			Dialer: dialer,
			Pinger: &transport.TCPPinger{Dialer: dialer},
			Pool:   pool,
			Logger: logger,
		})
		if err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
		ln, err := cli.Listen(*listen)
		if err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
		logger.Printf("ides-client: echoing on %s", ln.Addr())
		if err := echo.ServeEcho(context.Background(), ln); err != nil {
			logger.Fatalf("ides-client: %v", err)
		}
	}
}
