// Package ides implements the Internet Distance Estimation Service from
// "Modeling Distances in Large-Scale Networks by Matrix Factorization"
// (Mao & Saul, IMC 2004): network distances are modeled as a low-rank
// matrix product D ≈ X·Yᵀ, giving every host an outgoing and an incoming
// vector whose dot product estimates the distance between any two hosts.
// Unlike Euclidean coordinate systems (GNP, Vivaldi, ICS), the factorized
// model represents asymmetric routing and triangle-inequality violations,
// both pervasive on the Internet.
//
// The package is a facade over the implementation packages:
//
//   - fitting landmark models with SVD or NMF (FitSVD, FitNMF, Fit);
//   - placing ordinary hosts by closed-form least squares against any
//     subset of measured nodes (Model.SolveHost, SolveVectors), one SVD
//     solve that is exact for well-conditioned references and damps the
//     directions a near-singular set barely resolves; a Model decomposes
//     its landmark vectors once, on its first placement, and every later
//     host only applies the factors;
//   - the networked service: information server (NewServer), landmark
//     agent (NewLandmark), and ordinary-host client (NewClient), which run
//     identically over real TCP and over the simulated network (NewSimNet);
//   - the versioned model lifecycle: the server refits the landmark model
//     on a debounced background goroutine as measurement reports churn —
//     never on a request handler — and publishes each fit as an immutable
//     epoch-stamped Snapshot. The epoch rides along in every model-bearing
//     response, directory entries die with the generation they were solved
//     against, and clients that observe an epoch bump transparently
//     re-fetch the model, re-solve, and re-register (tune with the server
//     flags -refit-interval and -refit-threshold);
//   - pluggable model-update solvers (internal/solve): the default batch
//     solver refits the full factorization per refresh, while the SGD
//     solver (server flag -solver sgd) folds each measurement into the
//     touched landmark rows at O(d) cost and publishes incremental
//     revisions under the SAME epoch — registered host vectors survive —
//     until accumulated drift crosses -drift-epoch-threshold and a full
//     corrective refit starts a new generation (step size 0.3 and L2
//     decay 1e-4 are solve.SGDOptions' defaults, fixed as DMFSGD fixes
//     them; TestSolverConformance holds both to the same accuracy);
//   - the bulk query engine (NewDirectory, NewQueryEngine): a sharded host
//     directory with amortized TTL expiry, and vectorized one-to-many
//     (Client.EstimateBatch), all-pairs (QueryEngine.EstimateMatrix), and
//     k-nearest (Client.KNearest) queries, each answered in one wire round
//     trip via the QueryBatch/Distances and QueryKNN/Neighbors messages;
//     on large directories KNearest is served by an epoch-pinned KD-tree
//     built asynchronously on every snapshot swap — exact branch-and-bound
//     inner-product search, bitwise identical to the scan it replaces,
//     with automatic exact-scan fallback for small, stale or
//     dimension-mismatched directories (internal/query/knnindex);
//   - the zero-allocation serving hot path: framed reads land in reusable
//     per-connection scratch (wire.ReadFrameInto), handlers encode into
//     caller-owned buffers, and the pooled client threads its own scratch
//     through Pool.CallInto, so a steady-state point query performs zero
//     heap allocations end to end — enforced in CI by
//     TestPointQueryZeroAlloc and itemized per layer by BenchmarkAllocs;
//   - the pooled transport (NewPool): clients and landmark agents carry
//     every exchange over keep-alive connections reused per address — with
//     idle reaping, per-host caps, per-call deadline reset, and one
//     transparent retry when a pooled connection died idle — while the
//     server runs idle waits and in-flight requests on separate timeout
//     budgets (Config.IdleTimeout vs Config.RequestTimeout);
//   - multiplexed v2 framing negotiated per connection (Hello/HelloAck):
//     many streams in flight over one connection, client-side write
//     coalescing, concurrent dispatch behind a negotiated stream window
//     with per-stream Overloaded backpressure — served by one frame
//     server (internal/transport.Serve) under the information server,
//     the gossip peer and the landmark echo alike — per-call
//     cancellation that kills a stream rather than the connection, and
//     transparent lockstep fallback against pre-mux peers (measured by
//     bash bench/run.sh --workload bulk-pipelined --trace 1, the
//     transport.* rows of the table in bench/README.md);
//   - the horizontal serving tier (Config.Role): a leader owns the model
//     pipeline while followers (RoleFollower, server flags -role follower
//     -leader addr) mirror its published snapshots and host directory
//     over a streaming replication protocol (Subscribe, then the Model
//     and RegisterHost messages clients already get; Model carries the
//     revision as Rev), serve every read locally and forward writes to the
//     leader; clients given the whole tier (Config.Servers, client flag
//     -servers) route through a failover pool (NewClusterPool) that
//     picks healthy endpoints least-inflight-first, replays idempotent
//     calls on the next endpoint when one dies, and re-probes downed
//     endpoints until they rejoin — TestScenarioLeaderKillFailover and
//     TestFollowerServesDuringLeaderLoss gate the tier end to end (leader
//     killed under query load, zero read errors, followers held at the
//     pre-kill epoch);
//   - the decentralized, landmark-free peer mode (internal/peer, the
//     ides-peer binary): every host keeps its own coordinate rows and
//     converges by gossip — each round measures RTT to one random
//     neighbor, exchanges coordinate rows over the wire protocol
//     (GossipExchange/GossipReply), and applies the Kaczmarz-normalized
//     SGD step symmetrically on both sides — the one row update the
//     SGD solver also runs (solve.PeerStep), held to it bit for bit by
//     TestSGDPairStepIsTwoPeerSteps — O(d) per round with no
//     central fit and no landmarks; estimates are peer-to-peer from
//     exchanged coordinates, the only central piece is an optional
//     bootstrap directory (peer.Rendezvous, what ides-server -role
//     rendezvous runs in place of a server), and the harness gates a
//     10,000-peer fleet against the same Fig-2 accuracy bounds as the
//     centralized pipeline, bit-identical across same-seed runs
//     (go test ./internal/harness -run TestGossip; measured by bash
//     bench/run.sh --workload gossip-fleet --trace 1);
//   - the synthetic datasets and baselines used to reproduce every table
//     and figure of the paper (GenNLANR..., FitLipschitzPCA, FitGNP,
//     FitVivaldi);
//   - the deterministic simulation stack: internal/simnet is an
//     in-process network fabric (central event scheduler, per-link
//     seeded jitter/loss streams, runtime-scriptable faults:
//     Partition/Heal, SetLatencyScale, Kill/Revive)
//     and internal/harness boots the full service over it — real server,
//     landmark and client code, virtual wire — with scenario steps and
//     accuracy/recovery assertions. The same seed reproduces the same
//     measurements, fits and error percentiles; the partition/heal,
//     flap and loss scenarios run gated in go test ./internal/harness;
//   - observability (internal/telemetry): a dependency-free metrics
//     registry — atomic counters, gauges, fixed-bucket histograms —
//     served in Prometheus text format behind the opt-in -metrics-addr
//     flag on every binary, instrumenting the server, refitter,
//     transport pool and query engine; plus an append-only history store
//     (server flag -history-dir) journaling accepted report frames,
//     fit/revision events and per-epoch error summaries into a
//     CRC-framed segmented log whose frames `ides-inspect -replay` feeds
//     to a fresh in-process leader for deterministic what-if analysis
//     (swap solver, dim or drift threshold against recorded traffic).
//
// See README.md for a tour ("Layout" maps the packages, "Reproducing the
// paper" lists the experiment runs) and the internal/dataset package
// comment for the dataset-substitution rationale. The quickstart example (examples/quickstart) walks the paper's
// own worked example end to end.
package ides
