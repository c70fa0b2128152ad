package ebv

import (
	"context"
	"fmt"
	"time"

	"ebv/internal/cluster"
)

// Cluster facade: the coordinator/worker control plane (internal/cluster)
// surfaced on the Pipeline. OpenCluster prepares the pipeline once —
// load, partition, build — and serves the shards to worker processes that
// register over TCP; Run drives jobs with superstep-barrier checkpointing
// and automatic failover. See the cmd/ebv-coordinator and cmd/ebv-worker
// commands for the process-level shape.

type (
	// ClusterJob names a program and its parameters for Cluster.Run.
	ClusterJob = cluster.JobSpec
	// ClusterJobResult is the outcome of one Cluster.Run job.
	ClusterJobResult = cluster.JobResult
	// ClusterAgentConfig configures a worker process's agent.
	ClusterAgentConfig = cluster.AgentConfig
	// ClusterAgent is one worker process's control-plane client.
	ClusterAgent = cluster.Agent
)

var (
	// NewClusterAgent builds an agent; its Run method serves jobs until
	// the coordinator shuts it down.
	NewClusterAgent = cluster.NewAgent
	// RunClusterAgent is NewClusterAgent + Run.
	RunClusterAgent = cluster.RunAgent
)

// ClusterOptions configures Pipeline.OpenCluster.
type ClusterOptions struct {
	// Listen is the coordinator's control-plane listen address
	// (default "127.0.0.1:0"; use ":port" to accept remote workers).
	Listen string
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// declared dead (default 5s).
	HeartbeatTimeout time.Duration
	// Logf receives coordinator progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Cluster is a prepared pipeline being served to external worker
// processes by a coordinator. One deployment serves many jobs: workers
// register once, receive their shard once, and every Run reuses them.
type Cluster struct {
	coord    *cluster.Coordinator
	prepared *PipelineResult
}

// OpenCluster prepares the pipeline once — load, partition, build — and
// starts a coordinator serving the shards to worker processes
// (cmd/ebv-worker -coordinator, or RunClusterAgent in-process).
// The caller must Close the cluster; canceling ctx also tears the
// coordinator down (the cluster's lifecycle context derives from it).
func (p *Pipeline) OpenCluster(ctx context.Context, opts ClusterOptions) (*Cluster, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := p.prepare(ctx)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(ctx, cluster.Config{
		Subgraphs:        res.Subgraphs,
		Listen:           opts.Listen,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		Logf:             opts.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("ebv: open cluster: %w", err)
	}
	return &Cluster{coord: coord, prepared: res}, nil
}

// Addr is the control-plane address workers register at.
func (c *Cluster) Addr() string { return c.coord.Addr() }

// NumWorkers is the partition count — the worker quorum a job needs.
func (c *Cluster) NumWorkers() int { return c.coord.NumWorkers() }

// NumRegistered is the number of currently registered workers, partition
// owners and hot standbys both.
func (c *Cluster) NumRegistered() int { return c.coord.NumRegistered() }

// Prepared returns the artifacts OpenCluster produced (graph, assignment,
// metrics, subgraphs, stage timings; BSP is nil — jobs return their
// results from Run).
func (c *Cluster) Prepared() *PipelineResult { return c.prepared }

// Run executes one job across the registered workers, retrying through
// worker failures (restoring from the latest complete checkpoint epoch
// when the job checkpoints). It blocks until enough workers are
// registered to own every partition.
func (c *Cluster) Run(ctx context.Context, job ClusterJob) (*ClusterJobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.coord.Run(ctx, job)
}

// Close shuts the coordinator down and tells registered workers to exit.
func (c *Cluster) Close() error { return c.coord.Close() }
