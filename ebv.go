// Package ebv is the public API of this repository: a Go reproduction of
// "An Efficient and Balanced Graph Partition Algorithm for the
// Subgraph-Centric Programming Model on Large-scale Power-law Graphs"
// (Zhang et al., ICDCS 2021).
//
// It re-exports the supported surface of the internal packages so that
// downstream users never import internal/...:
//
//   - graph construction, IO and statistics (internal/graph),
//   - synthetic workload generators (internal/gen),
//   - the EBV partitioner — the paper's contribution (internal/core) —
//     and the five competitor partitioners,
//   - the subgraph-centric BSP engine with its four programs — CC,
//     PageRank (fixed iterations, or to a tolerance), SSSP (unit or
//     weighted) and Aggregate — (internal/bsp, internal/apps),
//   - the vertex-centric comparator engine (internal/pregel),
//   - the experiment harness that regenerates every table and figure
//     (internal/harness).
//
// Quick start — the Pipeline facade chains the paper's whole processing
// path (generate/load → partition → build subgraphs → run BSP program →
// metrics) in one cancellable call:
//
//	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
//	defer stop()
//	res, err := ebv.NewPipeline(
//		ebv.FromGenerator(func() (*ebv.Graph, error) {
//			return ebv.PowerLaw(ebv.PowerLawConfig{
//				NumVertices: 100000, NumEdges: 1000000, Eta: 2.2, Directed: true, Seed: 1,
//			})
//		}),
//		ebv.Subgraphs(16), // partitioned by EBV-auto unless UsePartitioner says otherwise
//	).Run(ctx, &ebv.CC{})
//	// handle err (ctx.Err() after a Ctrl-C)
//	fmt.Printf("replication factor: %.2f, %d supersteps\n",
//		res.Metrics.ReplicationFactor, res.BSP.Steps)
//
// To serve many programs over the same graph, prepare once and run many:
// Pipeline.Open performs load → partition → build a single time and
// returns a Session owning the subgraphs and a persistent transport mesh;
// every Session.Run is then a job paying only the execution cost, and Run
// is safe for concurrent callers (each job gets its own exchange, value
// width and step cap):
//
//	s, err := ebv.NewPipeline(
//		ebv.FromEdgeList("graph.txt"),
//		ebv.Subgraphs(16),
//	).Open(ctx)
//	// handle err
//	defer s.Close()
//	cc, err := s.Run(ctx, &ebv.CC{})                              // job 1
//	pr, err := s.Run(ctx, &ebv.PageRank{Iterations: 10})          // job 2
//	agg, err := s.Run(ctx, &ebv.Aggregate{Layers: 2}, ebv.WithValueWidth(8))
//	fmt.Println(s.Stats().SteadyStateRunTime())                   // amortized per-job latency
//
// The lower-level pieces remain available for custom wiring: every
// partitioner exposes Partition(ctx, g, k), BuildSubgraphs turns its
// assignment into per-worker subgraphs, and RunBSP runs a program over them
// one-shot. The same prepared pipeline is reachable three ways: in-process
// (Pipeline.Run / Open), as a coordinator/worker cluster
// (Pipeline.OpenCluster, cmd/ebv-coordinator + cmd/ebv-worker) and over
// HTTP (cmd/ebv-serve).
//
// The Example functions are runnable demos; DESIGN.md has the architecture.
package ebv

import (
	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/ginger"
	"ebv/internal/graph"
	"ebv/internal/harness"
	"ebv/internal/live"
	"ebv/internal/metis"
	"ebv/internal/ne"
	"ebv/internal/partition"
	"ebv/internal/pregel"
	"ebv/internal/transport"
)

// Graph substrate.
type (
	// Graph is an immutable directed graph (undirected inputs are stored
	// as mirrored edge pairs).
	Graph = graph.Graph
	// Edge is a directed edge.
	Edge = graph.Edge
	// VertexID identifies a vertex; ids are dense in [0, NumVertices).
	VertexID = graph.VertexID
	// EdgeWeights assigns a weight to every edge (nil = unit weights).
	EdgeWeights = graph.EdgeWeights
)

// Graph constructors and IO (see internal/graph for details).
var (
	NewGraph          = graph.New
	WriteEdgeList     = graph.WriteEdgeList
	ReadBinaryGraph   = graph.ReadBinary
	ReadGraphFile     = graph.ReadFile
	WriteBinaryGraph  = graph.WriteBinary
	ComputeGraphStats = graph.ComputeStats
	ReverseGraph      = graph.Reverse
	HashWeights       = graph.HashWeights
)

// Generators.
type (
	// PowerLawConfig parameterizes the Chung–Lu power-law generator.
	PowerLawConfig = gen.PowerLawConfig
	// RMATConfig parameterizes the R-MAT generator.
	RMATConfig = gen.RMATConfig
	// RoadConfig parameterizes the road-network generator.
	RoadConfig = gen.RoadConfig
	// ErdosRenyiConfig parameterizes the uniform random generator.
	ErdosRenyiConfig = gen.ErdosRenyiConfig
	// Analogue names one of the paper's four evaluation graphs.
	Analogue = gen.Analogue
)

// Generator entry points.
var (
	PowerLaw    = gen.PowerLaw
	RMAT        = gen.RMAT
	Road        = gen.Road
	ErdosRenyi  = gen.ErdosRenyi
	TableIGraph = gen.TableIGraph
)

// The four Table I analogue graphs.
const (
	USARoad     = gen.USARoad
	LiveJournal = gen.LiveJournal
	Twitter     = gen.Twitter
	Friendster  = gen.Friendster
)

// Partitioning.
type (
	// Partitioner assigns each edge to one of k subgraphs.
	Partitioner = partition.Partitioner
	// Assignment is an edge-to-subgraph mapping.
	Assignment = partition.Assignment
	// PartitionMetrics bundles the paper's §III-C quality metrics.
	PartitionMetrics = partition.Metrics
	// DBH is degree-based hashing.
	DBH = partition.DBH
	// CVC is the 2-D cartesian vertex-cut.
	CVC = partition.CVC
	// RandomPartitioner is the 1-D hash baseline.
	RandomPartitioner = partition.Random
	// NE is neighbor expansion.
	NE = ne.NE
	// Metis is the multilevel edge-cut baseline.
	Metis = metis.Metis
	// Ginger is the PowerLyra hybrid-cut + Fennel baseline.
	Ginger = ginger.Ginger
	// HDRF is the High-Degree-Replicated-First streaming baseline.
	HDRF = partition.HDRF
	// Hybrid is PowerLyra's plain hybrid-cut.
	Hybrid = partition.Hybrid
	// Fennel is the streaming edge-cut baseline.
	Fennel = partition.Fennel
	// StreamingEBVConfig configures NewStreamingEBV.
	StreamingEBVConfig = core.StreamingConfig
	// EBVStream adapts StreamingEBV to the Partitioner interface.
	EBVStream = core.PartitionStream
	// ParallelEBV is the epoch-synchronized distributed EBV (§VII).
	ParallelEBV = core.ParallelEBV
)

// EBV construction and options (paper defaults: α = β = 1, sorted order).
var (
	NewEBV             = core.New
	NewStreamingEBV    = core.NewStreaming
	WithAlpha          = core.WithAlpha
	WithBeta           = core.WithBeta
	WithOrder          = core.WithOrder
	WithGrowthTracking = core.WithGrowthTracking
	ComputeMetrics     = partition.ComputeMetrics
	// ExpectedRandomReplication is the analytical random vertex-cut
	// replication model (PowerGraph's formula).
	ExpectedRandomReplication = partition.ExpectedRandomReplication
	WriteAssignmentText       = partition.WriteAssignmentText
	ReadAssignmentText        = partition.ReadAssignmentText
	WriteAssignmentBinary     = partition.WriteAssignmentBinary
	ReadAssignmentBinary      = partition.ReadAssignmentBinary
)

// OrderInput is the unsorted edge-processing order of the §V-D ablation
// (WithOrder(OrderInput)); the default is the paper's degree-sum sort.
const OrderInput = core.OrderInput

// Subgraph-centric BSP engine (§IV-B).
type (
	// Subgraph is one worker's local view of a partitioned graph.
	Subgraph = bsp.Subgraph
	// Program is a subgraph-centric application.
	Program = bsp.Program
	// WorkerProgram is a Program instance bound to one subgraph (needed to
	// implement Program outside this module).
	WorkerProgram = bsp.WorkerProgram
	// RunConfig tunes a BSP run.
	RunConfig = bsp.Config
	// RunResult is the outcome of a BSP run, with the §V-B breakdown.
	RunResult = bsp.Result
	// MessageBatch is a columnar batch of replica-synchronization
	// messages (vertex-id column + width-strided value column).
	MessageBatch = transport.MessageBatch
	// ValueMatrix is the width-aware columnar vertex-value store returned
	// by programs and runs (row per vertex, ValueWidth columns).
	ValueMatrix = graph.ValueMatrix
	// WorkerEnv is the per-run execution environment handed to
	// Program.NewWorker (value width + pooled batch allocator).
	WorkerEnv = bsp.Env
	// MessageCounts reports a run's cross-worker message rows at the two
	// ends of the exchange (RunResult.MessageCounts); every row sent is
	// delivered, and Emitted equals Wire.
	MessageCounts = bsp.MessageCounts
)

// BSP entry points. RunBSP takes a context whose cancellation aborts the
// run (workers blocked in a collective exchange are released by closing the
// transports).
var (
	BuildSubgraphs = bsp.BuildSubgraphs
	// WriteSubgraph / ReadSubgraph are the EBVS shard codec — the bytes the
	// cluster coordinator ships to its workers.
	WriteSubgraph = bsp.WriteSubgraph
	ReadSubgraph  = bsp.ReadSubgraph
	// RunBSP is the one-shot whole-job run over the in-memory transport;
	// Pipeline.Open is the prepare-once/serve-many form.
	RunBSP = bsp.Run
	// RunOptions for Pipeline WithRun and Session.Run; the RunConfig struct
	// literal is the other form.
	WithMaxSteps   = bsp.WithMaxSteps
	WithValueWidth = bsp.WithValueWidth
)

// Applications (§V-A) and sequential oracles.
type (
	// CC is subgraph-centric connected components.
	CC = apps.CC
	// PageRank is subgraph-centric PageRank, for a fixed number of
	// iterations or (Tol > 0) to a fixed point.
	PageRank = apps.PageRank
	// SSSP is subgraph-centric single-source shortest paths, over unit or
	// (Weighted) edge weights.
	SSSP = apps.SSSP
	// Aggregate is subgraph-centric mean neighborhood aggregation — the
	// GNN message-passing kernel of the paper's §VII outlook.
	Aggregate = apps.Aggregate
	// ProgramParams carries the by-name parameters for ProgramByName.
	ProgramParams = apps.Params
)

// ProgramByName is the app registry: it instantiates CC, PR, SSSP, WSSSP or
// Aggregate by (case-insensitive) name. Every by-name surface — the CLIs,
// ClusterJob, ebv-serve — resolves through it. ProgramNames lists the
// names for help text.
var ProgramByName = apps.ByName

const ProgramNames = apps.Names

// Sequential reference implementations (correctness oracles).
var (
	SequentialCC        = apps.SequentialCC
	SequentialSSSP      = apps.SequentialSSSP
	SequentialAggregate = apps.SequentialAggregate
)

// Live graphs (internal/live, DESIGN.md §13): Session.Apply streams edge
// mutations into an open session, assigning inserts online with a
// streaming vertex-cut policy and patching only the affected subgraphs.
// A batch is a []Mutation in process and a JSON body over HTTP
// (serve.MutationRequest); it has no binary encoding.
type (
	// Mutation is one edge insert or delete, in global vertex ids.
	Mutation = live.Mutation
	// MutationOp is a Mutation's kind (OpInsert / OpDelete).
	MutationOp = live.Op
	// ApplyResult describes one committed mutation batch.
	ApplyResult = live.ApplyResult
	// LiveStats is the mutation layer's lifetime counters.
	LiveStats = live.Stats
)

// Mutation ops.
const (
	OpInsert = live.OpInsert
	OpDelete = live.OpDelete
)

// ErrMutationRejected wraps every validation failure of a mutation
// batch. A job after a batch warm-starts from a previous result through
// the programs themselves: &CC{Warm: r.Values, WarmCovered: r.Covered},
// and likewise PageRank with Tol > 0 to iterate to the new fixed point.
var ErrMutationRejected = live.ErrRejected

// Vertex-centric comparator engine (Galois/Blogel stand-in, DESIGN.md §2).
type (
	// PregelConfig tunes a vertex-centric run.
	PregelConfig = pregel.Config
	// PregelCC is vertex-centric connected components.
	PregelCC = pregel.CC
	// PregelPageRank is vertex-centric PageRank.
	PregelPageRank = pregel.PageRank
)

// RunPregel executes a vertex-centric program over g with k workers.
var RunPregel = pregel.Run

// Experiment harness (regenerates every table and figure; see DESIGN.md §4).

// ExperimentOptions configures the harness.
type ExperimentOptions = harness.Options

// Harness entry points. ctx is threaded through every partition cell and
// BSP run of the experiment.
var (
	RunExperiment     = harness.Run
	RunExperimentCSV  = harness.RunCSV
	ExperimentNames   = harness.ExperimentNames
	PaperPartitioners = harness.PaperPartitioners
	PartitionerByName = harness.PartitionerByName
)
