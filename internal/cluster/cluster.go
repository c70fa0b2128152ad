// Package cluster is the coordinator/worker control plane layered over the
// BSP data plane: the piece that turns the single-process engine into the
// paper's actual deployment shape — a real multi-node cluster (§V runs on
// a 4-node testbed) with coordinator-driven job scheduling, superstep-
// barrier checkpointing and worker failover, the fault-tolerance baseline
// of the Pregel lineage the paper builds on.
//
// Roles:
//
//   - The Coordinator owns the partitioned graph. It accepts worker
//     registrations over TCP (EBVC control frames, see readFrame),
//     ships each worker its subgraph shard through the hardened
//     bsp.WriteSubgraph codec, assembles the data-plane peer address list
//     automatically, launches jobs, and detects worker death by heartbeat
//     timeout or connection failure.
//
//   - An Agent is one worker process. It binds its data-plane listener,
//     registers with that address, receives a shard (or waits as a hot
//     standby when all partitions are owned), and serves jobs on one mesh
//     node per roster: an open names the mesh, which the agent wires only
//     if its node serves another, then opens the job on it; once all k
//     have opened, start runs the BSP worker loop — cutting a checkpoint
//     to disk every CheckpointEvery supersteps.
//
// Failover: when a worker dies mid-job, its data-plane sockets collapse,
// every surviving worker's exchange fails within one superstep, and the
// attempt aborts; every agent that failed closes its node. The coordinator
// reassigns the lost partition to a standby (or newly restarted) worker,
// numbers a new mesh (after any failed attempt, so the retry rewires),
// selects the latest checkpoint epoch for which EVERY partition has a
// CRC-valid file (a partial epoch — the victim died mid-write — is never
// selected), and relaunches the job from it. Checkpoint replay is bit-exact (see bsp.Checkpoint), so a job that
// lost a worker mid-run completes with values byte-identical to an
// uninterrupted run.
package cluster

import (
	"fmt"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// JobSpec names a program and its parameters in a form that crosses the
// wire (programs themselves carry closures; a spec is plain data). The
// zero values select each program's defaults.
type JobSpec struct {
	// App selects the program by its apps.ByName name: CC, PR, SSSP, WSSSP
	// or Aggregate (case-insensitive).
	App string
	// Iterations is PR's iteration count (0 = default 10).
	Iterations int
	// Damping is PR's damping factor (0 = default 0.85).
	Damping float64
	// Source is the SSSP/WSSSP source vertex.
	Source int64
	// Layers is Aggregate's layer count (0 = default 2).
	Layers int
	// ValueWidth is the per-vertex value width (0 = 1; negative or above
	// transport.MaxValueWidth fails Run).
	ValueWidth int
	// MaxSteps is the superstep safety cap (0 = engine default; negative
	// fails Run).
	MaxSteps int
	// Combine is ignored. benchmark/ still sets it (ROADMAP item 1(b)).
	Combine bool
	// CheckpointDir enables checkpointing: every worker writes its epoch
	// files here. The directory must be reachable by the coordinator and
	// every worker (shared storage, or one machine). Empty disables
	// checkpointing — a worker death then fails the attempt with nothing
	// to restore, and retries restart from step 0.
	CheckpointDir string
	// CheckpointEvery is the epoch length in supersteps (0 disables;
	// negative fails Run).
	CheckpointEvery int
	// MaxAttempts caps job attempts, the first one included (0 = 5;
	// negative fails Run).
	MaxAttempts int
}

// Program instantiates the named program through the app registry
// (apps.ByName).
func (s JobSpec) Program() (bsp.Program, error) {
	return apps.ByName(s.App, apps.Params{
		Iterations: s.Iterations, Damping: s.Damping, Source: s.Source, Layers: s.Layers,
	})
}

// config is the one place a spec becomes the engine configuration every
// worker of the job runs with. ValueWidth comes back resolved (never 0),
// and a width the engine would reject is rejected here with the engine's
// own error, as is a negative limit — the coordinator checks it before a
// job exists, the agent before it wires or opens anything.
func (s JobSpec) config() (bsp.Config, error) {
	for _, limit := range []struct {
		name  string
		value int
	}{{"max steps", s.MaxSteps}, {"max attempts", s.MaxAttempts}, {"checkpoint every", s.CheckpointEvery}} {
		if limit.value < 0 {
			return bsp.Config{}, fmt.Errorf("cluster: %s %d invalid: must be >= 0", limit.name, limit.value)
		}
	}
	cfg := bsp.Config{ValueWidth: s.ValueWidth, MaxSteps: s.MaxSteps}
	width, err := cfg.Width()
	cfg.ValueWidth = width
	return cfg, err
}

// checkpointing reports whether the spec enables checkpoint epochs.
func (s JobSpec) checkpointing() bool {
	return s.CheckpointDir != "" && s.CheckpointEvery > 0
}

// maxAttempts resolves the attempt cap.
func (s JobSpec) maxAttempts() int {
	if s.MaxAttempts < 1 {
		return 5
	}
	return s.MaxAttempts
}

// JobResult is the outcome of one Coordinator.Run job.
type JobResult struct {
	// Job is the coordinator-scoped job number (1-based).
	Job int
	// Steps is the superstep count — a recovered job reports the same
	// count the uninterrupted run would (the step counter is absolute).
	Steps int
	// Values is the dense global value matrix (replica-verified).
	Values *graph.ValueMatrix
	// Covered[v] reports whether any subgraph covers vertex v.
	Covered []bool
	// Attempts is the number of attempts the job took (1 = no failure).
	Attempts int
	// RestoredFrom is the checkpoint epoch (superstep) the successful
	// attempt resumed from, or -1 if it ran from step 0.
	RestoredFrom int
}

const (
	defaultHeartbeatInterval = time.Second
	defaultHeartbeatTimeout  = 5 * time.Second
)
