package apps

import (
	"fmt"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// gatherRule is what a master/mirror program adds to gatherApply. Both
// methods run once per superstep over the worker's shared matrices.
type gatherRule interface {
	// gather refills partial with the local in-edge sums of round (an
	// iteration or layer), or reports false to halt the run.
	gather(round int) bool
	// apply updates the owned rows of h from h, partial and acc.
	apply()
}

// gatherApply is PowerGraph's master/mirror gather–apply (Gonzalez et al.,
// OSDI 2012), the replica protocol of PageRank and Aggregate. Each round
// takes two supersteps:
//
//	gather (even step): install the rows the masters scattered, let the
//	  rule sum every local in-edge into partial — edge partitioning counts
//	  each global in-edge exactly once — and send partial to the masters.
//	apply (odd step): fold the received partials into acc, let the rule
//	  update the owned rows of h, and scatter them to the mirrors.
//
// Message cost per round is 2·Σ_v(replicas(v)−1), directly proportional
// to the replication factor — the §V-C claim this repository reproduces
// in Table IV.
type gatherApply struct {
	sub  *bsp.Subgraph
	env  bsp.Env
	name string // the program's, for errors
	rule gatherRule
	// h holds the values, partial the local in-edge sums and acc the
	// partials received from mirrors, all at the run's width. Folding into
	// a zeroed acc (instead of straight into partial) fixes the per-vertex
	// sum grouping the recorded values and emission digests were pinned
	// with.
	h, partial, acc *graph.ValueMatrix
}

func newGatherApply(name string, sub *bsp.Subgraph, env bsp.Env) *gatherApply {
	n := sub.NumLocalVertices()
	return &gatherApply{sub: sub, env: env, name: name,
		h: env.NewValues(n), partial: env.NewValues(n), acc: env.NewValues(n)}
}

var _ bsp.Resumable = (*gatherApply)(nil)

// Superstep implements bsp.WorkerProgram.
func (g *gatherApply) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	plan := g.sub.Routing()
	cols, send := plan.ToMirrors, g.h
	if step%2 == 0 {
		// Step 0 of a fresh run receives nothing (no resume starts there).
		expect := plan.ToMaster
		if step == 0 {
			expect = nil
		}
		g.env.ReceiveRows(g.h, in, expect, false)
		if !g.rule.gather(step / 2) {
			return nil, false // final install; run complete
		}
		cols, send = plan.ToMaster, g.partial
	} else {
		clear(g.acc.Data)
		g.env.ReceiveRows(g.acc, in, plan.ToMirrors, true)
		g.rule.apply()
	}
	// Stay active through the final scatter so mirrors install it.
	return g.env.SendRows(cols, send), true
}

// addRow accumulates src into dst componentwise.
func addRow(dst, src []float64) {
	for j, v := range src {
		dst[j] += v
	}
}

// Values implements bsp.WorkerProgram: the worker is finished once Values
// is called, so h itself is handed over.
func (g *gatherApply) Values() *graph.ValueMatrix { return g.h }

// SnapshotState implements bsp.Resumable: h and partial side by side
// (width 2·W for a width-W run — a program snapshot's width is its own,
// not the run's). partial matters when the boundary falls between a
// gather and its apply step; acc is refilled from the inbox at every
// apply step and needs no snapshot.
func (g *gatherApply) SnapshotState() *graph.ValueMatrix {
	w, n := g.h.Width, g.h.Rows()
	m := graph.NewValueMatrix(n, 2*w)
	for l := range n {
		row := m.Row(l)
		copy(row[:w], g.h.Row(l))
		copy(row[w:], g.partial.Row(l))
	}
	return m
}

// RestoreState implements bsp.Resumable.
func (g *gatherApply) RestoreState(step int, state *graph.ValueMatrix) error {
	w, n := g.h.Width, g.h.Rows()
	if state.Width != 2*w {
		return fmt.Errorf("apps: %s snapshot width %d, want %d", g.name, state.Width, 2*w)
	}
	if err := state.CheckShape(n); err != nil {
		return err
	}
	for l := range n {
		row := state.Row(l)
		copy(g.h.Row(l), row[:w])
		copy(g.partial.Row(l), row[w:])
	}
	return nil
}
