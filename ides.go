package ides

import (
	"github.com/ides-go/ides/internal/client"
	"github.com/ides-go/ides/internal/coord"
	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/dataset"
	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
)

// ---- core model ----

// Matrix is a dense row-major matrix of float64 values, the numeric
// currency of the whole API.
type Matrix = mat.Dense

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix { return mat.NewDense(r, c) }

// MatrixFromRows builds a matrix by copying the given rows.
func MatrixFromRows(rows [][]float64) *Matrix { return mat.FromRows(rows) }

// Model is a fitted IDES landmark model: one outgoing and one incoming
// vector per landmark. Its first placement decomposes X and Y for every
// later one, so do not write into them after it; assigning new matrices
// is seen and decomposed again.
type Model = core.Model

// Vectors is a host's outgoing/incoming vector pair.
type Vectors = core.Vectors

// Algorithm selects the landmark factorization.
type Algorithm = core.Algorithm

// Factorization algorithms.
const (
	// SVD is truncated singular value decomposition (paper Eqs. 5-6).
	SVD = core.SVD
	// NMF is nonnegative matrix factorization (Lee-Seung updates): it
	// tolerates missing measurements, and its NNLS-placed hosts estimate >= 0.
	NMF = core.NMF
)

// FitOptions configures Fit.
type FitOptions = core.FitOptions

// Fit factors an m x m landmark distance matrix into an IDES model.
func Fit(landmarks *Matrix, opts FitOptions) (*Model, error) { return core.Fit(landmarks, opts) }

// FitSVD fits with truncated SVD at dimension dim.
func FitSVD(landmarks *Matrix, dim int, seed int64) (*Model, error) {
	return core.FitSVD(landmarks, dim, seed)
}

// FitNMF fits with nonnegative matrix factorization at dimension dim.
func FitNMF(landmarks *Matrix, dim int, seed int64) (*Model, error) {
	return core.FitNMF(landmarks, dim, seed)
}

// SolveVectors places a host against k reference nodes with precomputed
// vectors from its measured distances to and from them (Eqs. 13-16): the
// exact least-squares solution for well-conditioned references, damped
// along the directions a near-singular set barely resolves.
func SolveVectors(refOut, refIn *Matrix, dout, din []float64) (Vectors, error) {
	return core.SolveVectors(refOut, refIn, dout, din)
}

// SolveVectorsNNLS is SolveVectors with nonnegativity constraints (§5.1).
func SolveVectorsNNLS(refOut, refIn *Matrix, dout, din []float64) (Vectors, error) {
	return core.SolveVectorsNNLS(refOut, refIn, dout, din)
}

// Estimate returns the modeled distance from the host with vectors a to
// the host with vectors b: the dot product a.Out · b.In (Eq. 4).
func Estimate(a, b Vectors) float64 { return core.Estimate(a, b) }

// Placement holds batch-solved vectors for many hosts.
type Placement = core.Placement

// ---- datasets & topology ----

// Dataset is a named distance matrix with optional observation mask.
type Dataset = dataset.Dataset

// Synthetic equivalents of the paper's five datasets (the internal/dataset
// package comment gives the substitution rationale).
var (
	GenNLANR  = dataset.GenNLANR
	GenGNP    = dataset.GenGNP
	GenAGNP   = dataset.GenAGNP
	GenP2PSim = dataset.GenP2PSim
	GenPLRTT  = dataset.GenPLRTT
)

// LoadDataset reads a dataset written by Dataset.Save.
var LoadDataset = dataset.Load

// Topology is a synthetic transit-stub network with routed distances.
type Topology = topology.Topology

// TopologyConfig parameterizes topology generation.
type TopologyConfig = topology.Config

// GenerateTopology builds a synthetic Internet topology.
func GenerateTopology(cfg TopologyConfig) (*Topology, error) { return topology.Generate(cfg) }

// ---- baselines ----

// LipschitzPCA is the ICS / Virtual Landmark coordinate baseline.
type LipschitzPCA = factor.LipschitzPCA

// FitLipschitzPCA fits the Lipschitz+PCA baseline on a landmark matrix.
var FitLipschitzPCA = factor.FitLipschitzPCA

// GNPModel is the GNP Simplex-Downhill coordinate baseline.
type GNPModel = coord.GNPModel

// GNPOptions configures FitGNP.
type GNPOptions = coord.GNPOptions

// FitGNP embeds landmarks with Simplex Downhill, as the GNP system does.
var FitGNP = coord.FitGNP

// VivaldiModel is the Vivaldi spring-relaxation baseline (extension).
type VivaldiModel = coord.VivaldiModel

// VivaldiOptions configures FitVivaldi.
type VivaldiOptions = coord.VivaldiOptions

// FitVivaldi runs centralized Vivaldi over a full distance matrix.
var FitVivaldi = coord.FitVivaldi

// ---- statistics ----

// RelativeError is the paper's modified relative error (Eq. 10).
var RelativeError = stats.RelativeError

// CDF is an empirical cumulative distribution.
type CDF = stats.CDF

// NewCDF builds an empirical CDF from a sample.
var NewCDF = stats.NewCDF

// Summary aggregates an error sample.
type Summary = stats.Summary

// Summarize computes a Summary.
var Summarize = stats.Summarize

// ---- networked service ----

// Server is the IDES information server.
type Server = server.Server

// ServerConfig parameterizes a Server.
type ServerConfig = server.Config

// NewServer builds an information server.
var NewServer = server.New

// Role selects how a Server participates in a replicated serving tier
// (ServerConfig.Role): the leader fits the model and streams it out,
// followers mirror it and serve reads.
type Role = server.Role

const (
	// RoleLeader runs the full write path: model pipeline, directory
	// authority, and the replication stream followers subscribe to. The
	// zero value — a single-server deployment is a leader with no
	// followers.
	RoleLeader = server.RoleLeader
	// RoleFollower runs the read path only, mirroring the leader's
	// snapshots and directory over a replication subscription and
	// forwarding writes to it. Followers keep serving their last model
	// through a leader outage.
	RoleFollower = server.RoleFollower
)

// Snapshot is one immutable model state served by the information
// server: the fitted landmark model plus the epoch that identifies its
// generation and the incremental revision count within it. The server
// refreshes the model in the background as measurements churn and swaps
// snapshots atomically; Server.Epoch reports the current one, and
// clients recover automatically when the epoch moves (see README,
// "The model lifecycle and the epoch protocol").
type Snapshot = lifecycle.Snapshot

// SolverKind selects the server's model-update strategy
// (ServerConfig.Solver): how the landmark model keeps up with
// measurement churn (see README, "Model updates & solvers").
type SolverKind = solve.Kind

const (
	// SolverBatch refits the full factorization per model refresh — the
	// paper's strategy, and the default.
	SolverBatch = solve.Batch
	// SolverSGD maintains the model by O(d) per-measurement gradient
	// updates, publishing incremental revisions that keep registered
	// host vectors alive between (rare) drift-forced full refits.
	SolverSGD = solve.SGD
)

// Landmark is a landmark agent: it measures peers, reports to the server,
// and answers echo probes.
type Landmark = landmark.Agent

// LandmarkConfig parameterizes a Landmark.
type LandmarkConfig = landmark.Config

// NewLandmark builds a landmark agent.
var NewLandmark = landmark.New

// Client is an IDES ordinary host.
type Client = client.Client

// ClientConfig parameterizes a Client.
type ClientConfig = client.Config

// NewClient builds an ordinary-host client.
var NewClient = client.New

// BatchEstimate is one answer from Client.EstimateBatch.
type BatchEstimate = client.BatchEstimate

// NeighborEstimate is one answer from Client.KNearest.
type NeighborEstimate = client.NeighborEstimate

// ---- query engine ----

// HostDirectory is the sharded, TTL-sweeping registry of host vectors
// that backs the server; embed it directly for in-process deployments.
type HostDirectory = query.Directory

// DirectoryConfig parameterizes a HostDirectory.
type DirectoryConfig = query.Config

// NewDirectory builds a sharded host directory.
var NewDirectory = query.New

// QueryEngine answers bulk distance queries (one-to-many, all-pairs,
// k-nearest) over a HostDirectory with vectorized linear algebra.
type QueryEngine = query.Engine

// NewQueryEngine builds an engine over a directory; the resolver (may be
// nil) handles addresses outside the directory, e.g. landmarks.
var NewQueryEngine = query.NewEngine

// Neighbor is one QueryEngine.KNearest result.
type Neighbor = query.Neighbor

// KNNOptions tunes QueryEngine.KNearest.
type KNNOptions = query.KNNOptions

// Dialer and Pinger are the transport contracts the service components are
// written against; both real sockets and the simulated network satisfy
// them.
type (
	Dialer = transport.Dialer
	Pinger = transport.Pinger
)

// TCPPinger measures RTT with echo frames over the service transport.
type TCPPinger = transport.TCPPinger

// Pool is a client-side pool of persistent connections: calls reuse
// keep-alive connections per address instead of dialing per request,
// with idle reaping, per-host caps, and one transparent retry when a
// pooled connection died idle. Share one Pool across clients and
// landmark agents via their Config.Pool fields.
type Pool = transport.Pool

// PoolConfig parameterizes a Pool.
type PoolConfig = transport.PoolConfig

// NewPool validates cfg and builds a connection Pool.
var NewPool = transport.NewPool

// ClusterPool routes calls across a replicated serving tier: each call
// goes to the healthy endpoint with the fewest calls in flight, a dead
// endpoint is failed over transparently, and downed endpoints return to
// rotation via background health probes. Use ClientConfig.Servers to
// get one built into a Client, or NewClusterPool for direct use.
type ClusterPool = transport.ClusterPool

// ClusterConfig parameterizes a ClusterPool.
type ClusterConfig = transport.ClusterConfig

// NewClusterPool validates cfg and builds a failover router over a
// connection pool.
var NewClusterPool = transport.NewClusterPool

// ---- simulated network ----

// SimNet is an in-process virtual network driven by a topology's delays.
type SimNet = simnet.Network

// SimNetConfig parameterizes a SimNet.
type SimNetConfig = simnet.Config

// SimHost is an endpoint on a SimNet; it implements Dialer and Pinger.
type SimHost = simnet.Host

// NewSimNet builds a virtual network over a topology.
var NewSimNet = simnet.New

// SimHostNames returns default host names for a SimNet.
var SimHostNames = simnet.DefaultNames
