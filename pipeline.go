package ebv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// PipelineStage names one stage of a Pipeline run, in execution order:
// load → partition → metrics → build → run.
type PipelineStage string

// The pipeline stages.
const (
	// StageLoad generates or reads the input graph.
	StageLoad PipelineStage = "load"
	// StagePartition computes the edge assignment.
	StagePartition PipelineStage = "partition"
	// StageMetrics evaluates the §III-C partition-quality metrics.
	StageMetrics PipelineStage = "metrics"
	// StageBuild materializes the per-worker subgraphs.
	StageBuild PipelineStage = "build"
	// StageRun executes the BSP program until global quiescence.
	StageRun PipelineStage = "run"
)

// PipelineProgress is one progress event. Every stage emits two events: one
// when it starts (Done false, Elapsed 0) and one when it completes (Done
// true, Elapsed = stage duration). The callback runs synchronously on the
// pipeline goroutine; keep it cheap.
type PipelineProgress struct {
	Stage   PipelineStage
	Done    bool
	Elapsed time.Duration
	// Detail is a human-readable note ("EBV into 16 subgraphs", "CC").
	Detail string
	// Items is the number of directed edges the stage processed (the
	// loaded graph's edge count); 0 on start events and when unknown.
	Items int64
	// Throughput is Items per second of stage wall clock; 0 on start
	// events and when unknown.
	Throughput float64
}

// PipelineResult bundles everything a pipeline run produced. BSP is nil
// when the pipeline stopped after Prepare (no program was run).
type PipelineResult struct {
	// Graph is the loaded or generated input graph.
	Graph *Graph
	// Assignment is the edge-to-subgraph mapping.
	Assignment *Assignment
	// Metrics are the §III-C partition-quality metrics of Assignment.
	Metrics PartitionMetrics
	// Subgraphs are the per-worker local views built from Assignment
	// (populated by Run and Open; nil after Prepare).
	Subgraphs []*Subgraph
	// BSP is the program execution result (nil after Prepare).
	BSP *RunResult
	// PartitionerName records which algorithm produced Assignment
	// ("precomputed" when the assignment was supplied up front).
	PartitionerName string
	// LoadTime, PartitionTime, BuildTime and RunTime are the per-stage
	// wall-clock durations.
	LoadTime, PartitionTime, BuildTime, RunTime time.Duration
}

// Pipeline is the one-call facade over the paper's full processing chain:
// generate/load a graph, partition it, build per-worker subgraphs, run a
// subgraph-centric program, and evaluate the partition metrics — all under
// one context, with optional progress reporting. Construct with NewPipeline
// and functional options:
//
//	pr, err := ebv.NewPipeline(
//	    ebv.FromEdgeList("graph.txt"),
//	    ebv.UsePartitioner(&ebv.NE{}), // default: EBV-auto
//	    ebv.Subgraphs(16),
//	    ebv.OnProgress(func(p ebv.PipelineProgress) { log.Println(p.Stage, p.Done) }),
//	).Run(ctx, &ebv.CC{})
//
// Canceling ctx aborts whichever stage is in flight (partitioners poll the
// context cooperatively; the BSP engine additionally unblocks workers stuck
// in a collective exchange) and Run returns ctx.Err().
type Pipeline struct {
	source     func(ctx context.Context) (*graph.Graph, error)
	sourceDesc string
	undirected bool

	partitioner partition.Partitioner
	assignment  *partition.Assignment
	k           int
	kSet        bool

	weights  graph.EdgeWeights
	progress func(PipelineProgress)
	runOpts  []RunOption
	useTCP   bool

	mutationPolicy  string
	verifyMutations bool
}

// PipelineOption configures a Pipeline.
type PipelineOption func(*Pipeline)

// RunOption configures the BSP execution stage (an alias of the engine's
// functional option type: WithMaxSteps, WithValueWidth).
type RunOption = bsp.Option

// NewPipeline builds a Pipeline. Defaults: no source (Run fails until a
// From* option is given), the EBV-auto partitioner, 8 subgraphs, the
// in-memory transport, no progress reporting. The load and build stages
// use every CPU (GOMAXPROCS); their results do not depend on it.
func NewPipeline(opts ...PipelineOption) *Pipeline {
	p := &Pipeline{k: 8}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// FromGraph uses an already-constructed graph as the pipeline input.
func FromGraph(g *Graph) PipelineOption {
	return func(p *Pipeline) {
		p.source = func(context.Context) (*graph.Graph, error) { return g, nil }
		p.sourceDesc = "in-memory graph"
	}
}

// FromGenerator uses fn to produce the input graph during StageLoad (e.g. a
// closure over ebv.PowerLaw or ebv.RMAT).
func FromGenerator(fn func() (*Graph, error)) PipelineOption {
	return func(p *Pipeline) {
		p.source = func(context.Context) (*graph.Graph, error) { return fn() }
		p.sourceDesc = "generator"
	}
}

// FromEdgeList reads the input graph from path during StageLoad: a ".bin"
// suffix selects the binary format, anything else the text edge list
// (combine with Undirected for mirrored edges).
func FromEdgeList(path string) PipelineOption {
	return func(p *Pipeline) {
		p.sourceDesc = path
		p.source = func(ctx context.Context) (*graph.Graph, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if strings.HasSuffix(path, ".bin") {
				return graph.ReadBinary(f)
			}
			return graph.ReadEdgeList(f, p.undirected)
		}
	}
}

// Undirected makes FromEdgeList treat text input as undirected.
func Undirected() PipelineOption {
	return func(p *Pipeline) { p.undirected = true }
}

// UsePartitioner selects the partition algorithm (default EBV-auto: the
// paper's EBV, except on road-like graphs, whose breadth-first edge order
// it cuts into k equal ranges).
func UsePartitioner(part Partitioner) PipelineOption {
	return func(p *Pipeline) { p.partitioner = part }
}

// UseAssignment supplies a precomputed edge assignment, skipping
// StagePartition entirely (the subgraph count follows the assignment).
func UseAssignment(a *Assignment) PipelineOption {
	return func(p *Pipeline) { p.assignment = a }
}

// Subgraphs sets the number of subgraphs/workers k (default 8). Combined
// with UseAssignment, k must match the assignment's part count — a
// mismatch fails Prepare/Run/Open with a clear error instead of silently
// following the assignment.
func Subgraphs(k int) PipelineOption {
	return func(p *Pipeline) { p.k, p.kSet = k, true }
}

// WithEdgeWeights makes StageBuild materialize weighted subgraphs (for
// SSSP{Weighted: true}). Weights must be non-negative: the build rejects
// a negative or NaN one.
func WithEdgeWeights(w EdgeWeights) PipelineOption {
	return func(p *Pipeline) { p.weights = w }
}

// OnProgress registers a stage-progress callback.
func OnProgress(fn func(PipelineProgress)) PipelineOption {
	return func(p *Pipeline) { p.progress = fn }
}

// WithRun forwards functional options to the BSP execution stage.
func WithRun(opts ...RunOption) PipelineOption {
	return func(p *Pipeline) { p.runOpts = append(p.runOpts, opts...) }
}

// UseTCPLoopback runs StageRun over a real TCP loopback mesh instead of
// the in-memory transport (one mesh per Run call, sized to the subgraph
// count and torn down afterwards).
func UseTCPLoopback() PipelineOption {
	return func(p *Pipeline) { p.useTCP = true }
}

// MutationPolicy selects the streaming partitioner Session.Apply assigns
// inserted edges with: "ebv" (the default — the paper's evaluation
// function in streaming form), "hdrf" or "fennel". Unknown names fail
// Open.
func MutationPolicy(name string) PipelineOption {
	return func(p *Pipeline) { p.mutationPolicy = name }
}

// VerifyMutations makes every Session.Apply cross-check its incremental
// subgraph patch against a full part-parallel rebuild and reject the
// batch on any divergence. Full-rebuild cost per batch — a correctness
// harness for tests and smoke runs, not a production setting.
func VerifyMutations() PipelineOption {
	return func(p *Pipeline) { p.verifyMutations = true }
}

// emit reports a stage event to the progress callback, if any.
func (p *Pipeline) emit(ev PipelineProgress) {
	if p.progress != nil {
		p.progress(ev)
	}
}

// stage wraps fn with progress events and a context check, recording the
// stage duration into *took. fn returns the number of edges the stage
// processed, from which the completion event's throughput is derived.
func (p *Pipeline) stage(ctx context.Context, s PipelineStage, detail string, took *time.Duration, fn func() (int64, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.emit(PipelineProgress{Stage: s, Detail: detail})
	start := time.Now()
	items, err := fn()
	if err != nil {
		return err
	}
	*took = time.Since(start)
	ev := PipelineProgress{Stage: s, Done: true, Elapsed: *took, Detail: detail, Items: items}
	if items > 0 && *took > 0 {
		ev.Throughput = float64(items) / took.Seconds()
	}
	p.emit(ev)
	return nil
}

// Prepare runs the pipeline without executing a program: load, partition
// and metrics. It stops short of StageBuild — building k subgraph views is
// O(V+E) work a metrics-only caller such as cmd/ebv-partition should not
// pay for; Open (and so Run) always builds, since the BSP stage needs them.
func (p *Pipeline) Prepare(ctx context.Context) (*PipelineResult, error) {
	return p.prepare(ctx, false)
}

func (p *Pipeline) prepare(ctx context.Context, build bool) (*PipelineResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.source == nil {
		return nil, errors.New("ebv: pipeline has no input (use FromGraph, FromGenerator or FromEdgeList)")
	}
	if p.assignment == nil && p.k < 1 {
		return nil, partition.ErrBadPartCount
	}
	res := &PipelineResult{}

	if err := p.stage(ctx, StageLoad, p.sourceDesc, &res.LoadTime, func() (int64, error) {
		g, err := p.source(ctx)
		if err != nil {
			return 0, fmt.Errorf("ebv: pipeline load: %w", err)
		}
		res.Graph = g
		return int64(g.NumEdges()), nil
	}); err != nil {
		return nil, err
	}

	if p.assignment != nil {
		res.Assignment = p.assignment
		res.PartitionerName = "precomputed"
		if p.kSet && p.k != res.Assignment.K {
			return nil, fmt.Errorf("ebv: pipeline: Subgraphs(%d) conflicts with UseAssignment's %d parts (drop Subgraphs or match the assignment)",
				p.k, res.Assignment.K)
		}
		if len(res.Assignment.Parts) != res.Graph.NumEdges() {
			return nil, fmt.Errorf("ebv: pipeline: assignment covers %d edges, graph has %d",
				len(res.Assignment.Parts), res.Graph.NumEdges())
		}
	} else {
		part := p.partitioner
		if part == nil {
			part = core.New(core.WithOrder(core.OrderAuto))
		}
		res.PartitionerName = part.Name()
		detail := fmt.Sprintf("%s into %d subgraphs", part.Name(), p.k)
		if err := p.stage(ctx, StagePartition, detail, &res.PartitionTime, func() (int64, error) {
			a, err := partition.PartitionWithContext(ctx, part, res.Graph, p.k)
			if err != nil {
				return 0, fmt.Errorf("ebv: pipeline partition (%s): %w", part.Name(), err)
			}
			res.Assignment = a
			return int64(res.Graph.NumEdges()), nil
		}); err != nil {
			return nil, err
		}
	}

	var metricsTime time.Duration
	if err := p.stage(ctx, StageMetrics, res.PartitionerName, &metricsTime, func() (int64, error) {
		m, err := partition.ComputeMetrics(res.Graph, res.Assignment)
		if err != nil {
			return 0, fmt.Errorf("ebv: pipeline metrics: %w", err)
		}
		res.Metrics = m
		return int64(res.Graph.NumEdges()), nil
	}); err != nil {
		return nil, err
	}

	if build {
		if err := p.stage(ctx, StageBuild, fmt.Sprintf("%d subgraphs", res.Assignment.K), &res.BuildTime, func() (int64, error) {
			subs, err := bsp.BuildSubgraphsWeightedParallel(res.Graph, res.Assignment, p.weights, 0)
			if err != nil {
				return 0, fmt.Errorf("ebv: pipeline build: %w", err)
			}
			res.Subgraphs = subs
			return int64(res.Graph.NumEdges()), nil
		}); err != nil {
			return nil, err
		}
	}

	return res, nil
}

// Run executes the full pipeline: Prepare (load → partition → metrics →
// build) followed by prog on the BSP engine. Canceling ctx mid-partition or
// mid-superstep aborts the run and returns ctx.Err().
//
// Run is the one-shot form of the Session API — it opens a Session,
// serves prog as its only job and closes it. Callers running several
// programs over the same graph should call Open once and Session.Run per
// program, amortizing the partition and build cost.
func (p *Pipeline) Run(ctx context.Context, prog Program) (*PipelineResult, error) {
	s, err := p.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	job, err := s.Run(ctx, prog)
	if err != nil {
		return nil, err
	}
	res := s.Prepared()
	res.BSP = job.BSP
	res.RunTime = job.RunTime
	return res, nil
}
