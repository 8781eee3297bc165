// Command ides-server runs the IDES information server over TCP: it
// collects landmark RTT reports, fits the landmark model, serves it to
// clients, and runs the host-vector directory.
//
// Usage:
//
//	ides-server -listen :4100 \
//	    -landmarks lm0.example.net:4101,lm1.example.net:4101,... \
//	    -dim 10 -alg svd -refit-interval 30s -refit-threshold 8
//
//	# read-only replica of a running leader:
//	ides-server -listen :4200 -role follower -leader ides.example.net:4100
//
// The landmark model is refit in the background as measurement reports
// churn: -refit-interval bounds how often the factorization runs and
// -refit-threshold how many accepted measurements must accumulate first.
// Each refit publishes a new model epoch; clients registered against an
// older epoch transparently re-solve and re-register.
//
// -solver sgd switches model updates to incremental gradient steps:
// each measurement folds into the model at O(d) cost and publishes a
// revision under the SAME epoch — registered hosts keep their vectors —
// while full corrective refits (and the epoch bumps they carry) happen
// only when accumulated drift crosses -drift-epoch-threshold.
//
// With -role follower the process runs no model pipeline at all: it
// subscribes to the leader's replication stream, mirrors every model
// snapshot and directory change, answers the full read API locally, and
// forwards writes (reports, registrations) to the leader. Followers
// keep serving their last model through a leader outage and resync
// automatically when the leader returns; point clients at the whole
// tier with ides-client -servers.
//
// With -role rendezvous the process is no information server at all but
// the bootstrap directory of the decentralized peer mode (see ides-peer,
// peer.Rendezvous): it records announced peers and their coordinates and
// answers each announce with a warm random sample, serving no model and
// no queries. Only -listen, -seed, -request-timeout, -idle-timeout and
// -metrics-addr apply to it:
//
//	ides-server -listen :4100 -role rendezvous
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"github.com/ides-go/ides/internal/cli"
	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/peer"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/transport"
)

func main() {
	listen := flag.String("listen", ":4100", "address to listen on")
	landmarks := flag.String("landmarks", "", "comma-separated landmark addresses (required for the leader; ignored by followers, which learn them from the replication stream)")
	dim := flag.Int("dim", 10, "model dimensionality d")
	alg := flag.String("alg", "svd", "factorization algorithm: svd or nmf")
	seed := flag.Int64("seed", 1, "model fitting seed")
	hostTTL := flag.Duration("host-ttl", 0, "expire directory entries not re-registered within this window (0 = never)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "budget for one request/response exchange")
	idleTimeout := flag.Duration("idle-timeout", 0, "budget for a keep-alive connection idling between requests (0 = 10x request timeout, min 5m)")
	refitInterval := flag.Duration("refit-interval", 10*time.Second, "minimum time between background model refits")
	refitThreshold := flag.Int("refit-threshold", 1, "accepted measurements required before a background refit is scheduled")
	solverName := flag.String("solver", "batch", "model-update strategy: batch (full refit per refresh) or sgd (incremental gradient updates between corrective refits)")
	driftThreshold := flag.Float64("drift-epoch-threshold", 0, "solver drift at which a corrective refit bumps the epoch (0 = default 0.15, negative disables)")
	epochBase := flag.Uint64("epoch-base", 0, "model epoch base (first fit publishes base+1); 0 derives it from the start time so epochs never repeat across restarts")
	roleFlags := cli.RegisterRoleFlags(flag.CommandLine)
	metricsFlags := cli.RegisterMetricsFlags(flag.CommandLine, "")
	historyFlags := cli.RegisterHistoryFlags(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if roleFlags.Rendezvous() {
		rdv := peer.NewRendezvous(*seed, metricsFlags.Registry())
		listenAndServe(logger, *listen, metricsFlags, "rendezvous directory", "", func(ctx context.Context, ln net.Listener) error {
			return rdv.Serve(ctx, ln, transport.ServeConfig{
				RequestTimeout: *requestTimeout,
				IdleTimeout:    *idleTimeout,
				Logf:           func(format string, args ...any) { logger.Printf("ides-server: "+format, args...) },
			})
		})
		return
	}
	role, leaderAddr, followerID, err := roleFlags.Resolve(*listen)
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}
	lms := cli.List(*landmarks)
	if role == server.RoleLeader && len(lms) < 2 {
		logger.Fatal("ides-server: -landmarks must list at least two addresses")
	}

	algorithm, err := core.ParseAlgorithm(*alg)
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}
	solver, err := solve.ParseKind(*solverName)
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}

	base := *epochBase
	if base == 0 && role == server.RoleLeader {
		// Epochs are in-memory state: restarting from 0 would reissue
		// epochs the previous incarnation already published, and clients
		// that solved against the old model would not notice the swap.
		// A clock-derived base keeps every incarnation's epochs distinct
		// down to microsecond-scale restart gaps (crash loops included),
		// with ~1M refits of headroom per second between incarnations.
		// Followers take their epochs from the leader's stream instead.
		base = uint64(time.Now().UnixNano()) >> 10
	}
	hist, err := historyFlags.Open()
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}
	if hist != nil {
		defer hist.Close()
		logger.Printf("ides-server: recording history to %s", *historyFlags.Dir)
	}

	srv, err := server.New(server.Config{
		Role:                role,
		LeaderAddr:          leaderAddr,
		FollowerID:          followerID,
		Landmarks:           lms,
		Dim:                 *dim,
		Algorithm:           algorithm,
		Seed:                *seed,
		HostTTL:             *hostTTL,
		RequestTimeout:      *requestTimeout,
		IdleTimeout:         *idleTimeout,
		BaseEpoch:           base,
		RefitMinInterval:    *refitInterval,
		RefitThreshold:      *refitThreshold,
		Solver:              solver,
		DriftEpochThreshold: *driftThreshold,
		Metrics:             metricsFlags.Registry(),
		History:             hist,
		Logger:              logger,
	})
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}
	defer srv.Close()

	what, detail := "leader", fmt.Sprintf(" with %d landmarks, d=%d, %s", len(lms), *dim, algorithm)
	if role == server.RoleFollower {
		what, detail = "follower "+followerID, ", replicating from "+leaderAddr
	}
	listenAndServe(logger, *listen, metricsFlags, what, detail, srv.Serve)
}

// listenAndServe is the tail both programs behind -role share: the
// metrics endpoint, the listener, the "<what> listening on <addr><detail>"
// line, then serve until SIGINT or SIGTERM.
func listenAndServe(logger *log.Logger, listen string, metricsFlags *cli.MetricsFlags, what, detail string,
	serve func(context.Context, net.Listener) error) {
	stopMetrics, err := metricsFlags.Serve(logger, "ides-server")
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}
	defer stopMetrics() //nolint:errcheck

	ln, err := cli.Listen(listen)
	if err != nil {
		logger.Fatalf("ides-server: %v", err)
	}
	logger.Printf("ides-server: %s listening on %s%s", what, ln.Addr(), detail)

	ctx, stop := cli.SignalContext()
	defer stop()
	if err := serve(ctx, ln); err != nil && !errors.Is(err, context.Canceled) {
		logger.Fatalf("ides-server: %v", err)
	}
	logger.Print("ides-server: shut down")
}
