package bsp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"

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
	// links returns the worker's share of the job's link table.
	links func() *Links
}

// checkpointing reports whether this run cuts checkpoints.
func (s *workerSpec) checkpointing() bool { return s.ckptEvery > 0 && s.sink != nil }

// AssembleValues builds the dense global value matrix from per-worker local
// matrices, each checked against its subgraph's shape first (the cluster
// control plane receives them over a network). In one parallel pass, each
// worker w writes the rows it masters, disjoint from the others', sets
// Covered[v], and compares each mirror row of its ToMaster[q] bit for bit
// with q's local row, found through q's ToMirrors[w] (the same ids in the
// same order). The lowest worker's first disagreement fails the assembly.
func AssembleValues(subs []*Subgraph, workerValues []*graph.ValueMatrix, width int) (*graph.ValueMatrix, []bool, error) {
	if len(subs) == 0 {
		return nil, nil, errors.New("bsp: no subgraphs")
	}
	if len(workerValues) != len(subs) {
		return nil, nil, fmt.Errorf("bsp: %d worker value matrices for %d subgraphs", len(workerValues), len(subs))
	}
	for w, vals := range workerValues {
		if vals == nil {
			return nil, nil, fmt.Errorf("bsp: worker %d returned no values", w)
		}
		if vals.Width != width {
			return nil, nil, fmt.Errorf("bsp: worker %d returned width-%d values for a width-%d run", w, vals.Width, width)
		}
		if err := vals.CheckShape(subs[w].NumLocalVertices()); err != nil {
			return nil, nil, fmt.Errorf("bsp: worker %d: %w", w, err)
		}
	}
	numGlobal := subs[0].NumGlobalVertices
	values := graph.NewValueMatrix(numGlobal, width)
	covered := make([]bool, numGlobal)
	errs := make([]error, len(subs))
	RunParts(runtime.GOMAXPROCS(0), len(subs), func(w int) {
		sub, vals := subs[w], workerValues[w]
		for _, l := range sub.Routing().Owned {
			gid := int(sub.GlobalIDs[l])
			if width == 1 {
				values.Data[gid] = vals.Data[l]
			} else {
				copy(values.Row(gid), vals.Row(int(l)))
			}
			covered[gid] = true
		}
		for q, col := range sub.Routing().ToMaster {
			masters, theirs := subs[q].Routing().ToMirrors[w].Locals, workerValues[q]
			if len(masters) != len(col.Locals) {
				errs[w] = fmt.Errorf("bsp: worker %d holds %d mirrors of worker %d, which lists %d", w, len(col.Locals), q, len(masters))
				return
			}
			for i, l := range col.Locals {
				if width == 1 && math.Float64bits(vals.Data[l]) == math.Float64bits(theirs.Data[masters[i]]) {
					continue
				}
				row, master := vals.Row(int(l)), theirs.Row(int(masters[i]))
				for j := range row {
					if math.Float64bits(master[j]) != math.Float64bits(row[j]) {
						errs[w] = fmt.Errorf("bsp: replicas of vertex %d disagree at column %d: %g vs %g (worker %d), master at worker %d",
							col.IDs[i], j, master[j], row[j], w, q)
						return
					}
				}
			}
		}
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, nil, err
	}
	return values, covered, nil
}
