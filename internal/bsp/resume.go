package bsp

import (
	"errors"
	"fmt"
	"math"

	"ebv/internal/graph"
)

// Checkpoint is one worker's resumable execution state, cut at a superstep
// barrier: after the exchange that ends superstep Step-1 delivered the
// inbox for superstep Step, and before that superstep ran. Restarting a
// worker from a checkpoint and replaying from Step is bit-identical to the
// uninterrupted run, because everything Superstep(Step) reads is here: the
// program state (a program-defined ValueMatrix snapshot, see Resumable),
// the merged inbox the exchange delivered and the vote it reduced.
//
// Checkpoint epochs are globally aligned without any coordination beyond
// the exchange itself: the cut condition (Config.CheckpointEvery divides
// the next step, and the run is still active) depends only on the shared
// step counter and the exchange's global AnyActive flag, which every
// worker observes identically. Epoch E therefore exists either at every
// worker that reached it or at none — the property the cluster control
// plane's "latest complete epoch" restore selection relies on.
type Checkpoint struct {
	// Step is the next superstep to execute (>= 1).
	Step int
	// State is the program snapshot (Resumable.SnapshotState). Its width is
	// program-defined and may differ from the run's message width.
	State *graph.ValueMatrix
	// InboxIDs and InboxVals are the columns of the merged inbox awaiting
	// Superstep(Step): message i addresses vertex InboxIDs[i] and carries
	// the row InboxVals[i*width : (i+1)*width] at the run's message width.
	InboxIDs  []graph.VertexID
	InboxVals []float64
	// Vote is what Env.Reduced returns from RestoreState on.
	Vote Vote
}

// CheckInbox validates the inbox columns against the run width.
func (c *Checkpoint) CheckInbox(width int) error {
	if len(c.InboxVals) != len(c.InboxIDs)*width {
		return fmt.Errorf("bsp: checkpoint inbox has %d values for %d ids of width %d",
			len(c.InboxVals), len(c.InboxIDs), width)
	}
	return nil
}

// Resumable is the optional WorkerProgram extension checkpointing needs.
// A program's output values are not enough to restart it — workers keep
// internal state beyond Values() (PageRank's gather partials, CC's
// union-find labels) — so resumable programs define their own snapshot.
//
// The contract is exact replay: for any superstep boundary S at which the
// engine snapshots, NewWorker followed by RestoreState(S, snapshot) must
// leave the worker in a state from which Superstep(S), fed the same inbox,
// produces bit-identical outputs and bit-identical final Values().
type Resumable interface {
	// SnapshotState returns a freshly allocated matrix encoding the
	// worker's full resumable state; the caller owns it.
	SnapshotState() *graph.ValueMatrix
	// RestoreState rewinds a newly constructed worker to the boundary
	// before superstep step, from a matrix SnapshotState produced there;
	// Env.Reduced already returns the vote cut with it.
	RestoreState(step int, state *graph.ValueMatrix) error
}

// workerSpec bundles the per-worker execution parameters of one job, so
// the checkpoint/resume additions don't widen every call chain.
type workerSpec struct {
	maxSteps int
	width    int
	// ckptEvery > 0 with a non-nil sink cuts a checkpoint before every
	// superstep it divides; see Config.CheckpointEvery.
	ckptEvery int
	sink      func(worker int, cp *Checkpoint) error
	// resume, when non-nil, starts the worker at resume.Step instead of 0.
	resume *Checkpoint
}

// checkpointing reports whether this run cuts checkpoints.
func (s *workerSpec) checkpointing() bool { return s.ckptEvery > 0 && s.sink != nil }

// AssembleValues builds the dense global value matrix from per-worker
// local matrices: every replica writes its rows; with verify, replicas of
// the same vertex must agree bit-for-bit. It validates each worker matrix
// against its subgraph's shape first, so callers receiving matrices over a
// network (the cluster control plane) fail loudly on a mis-shaped one.
// Covered[v] reports whether any subgraph covers vertex v.
func AssembleValues(subs []*Subgraph, workerValues []*graph.ValueMatrix, width int, verify bool) (*graph.ValueMatrix, []bool, error) {
	if len(subs) == 0 {
		return nil, nil, errors.New("bsp: no subgraphs")
	}
	if len(workerValues) != len(subs) {
		return nil, nil, fmt.Errorf("bsp: %d worker value matrices for %d subgraphs", len(workerValues), len(subs))
	}
	numGlobal := subs[0].NumGlobalVertices
	values := graph.NewValueMatrix(numGlobal, width)
	covered := make([]bool, numGlobal)
	for w := 0; w < len(subs); w++ {
		vals := workerValues[w]
		if vals == nil {
			return nil, nil, fmt.Errorf("bsp: worker %d returned no values", w)
		}
		if vals.Width != width {
			return nil, nil, fmt.Errorf("bsp: worker %d returned width-%d values for a width-%d run", w, vals.Width, width)
		}
		if err := vals.CheckShape(subs[w].NumLocalVertices()); err != nil {
			return nil, nil, fmt.Errorf("bsp: worker %d: %w", w, err)
		}
		for local, gid := range subs[w].GlobalIDs {
			row := vals.Row(local)
			dst := values.Row(int(gid))
			if verify && covered[gid] {
				for j := range dst {
					if math.Float64bits(dst[j]) != math.Float64bits(row[j]) {
						return nil, nil, fmt.Errorf(
							"bsp: replicas of vertex %d disagree at column %d: %g vs %g (worker %d)",
							gid, j, dst[j], row[j], w)
					}
				}
			}
			copy(dst, row)
			covered[gid] = true
		}
	}
	return values, covered, nil
}
