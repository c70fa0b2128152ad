package bsp_test

import (
	"fmt"
	"strings"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// runTampered runs prog over subs on a fresh mesh by name at the given
// width with f fired into it, and fails the test unless f fired.
func runTampered(t *testing.T, mesh string, subs []*bsp.Subgraph, prog bsp.Program, width int, f *fault) error {
	t.Helper()
	_, err := runFault(t.Context(), t, mesh, subs, prog, bsp.Config{ValueWidth: width}, f)
	if !f.fired.Load() {
		t.Fatalf("%v never fired (run error: %v)", f, err)
	}
	return err
}

// unreplicated returns a vertex sub holds but shares with no other worker:
// one no correct delivery to it carries.
func unreplicated(t *testing.T, sub *bsp.Subgraph) graph.VertexID {
	for l, gid := range sub.GlobalIDs {
		if len(sub.PeersOf(int32(l))) == 0 {
			return gid
		}
	}
	t.Fatalf("worker %d replicates every vertex it holds", sub.Part)
	return 0
}

// TestTamperedGatherApplyInboxFails: PageRank's and Aggregate's receive
// walks the routing columns the step expects, so an inbox that is not
// exactly their concatenation (a source's first row dropped, a row
// duplicated, an id swapped for another vertex the receiver holds) fails
// the run naming the worker, the step and the source, on Mem and TCP, at
// widths 1 and 3. The exchange before step 1 delivers the mirrors'
// partials (an apply inbox), the one before step 2 the masters' scatter (a
// gather inbox).
func TestTamperedGatherApplyInboxFails(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k, worker = 4, 1
	subs := buildSubs(t, g, core.New(), k)
	id := unreplicated(t, subs[worker])
	for _, prog := range []bsp.Program{&apps.PageRank{Iterations: 5}, &apps.Aggregate{Layers: 3}} {
		for _, mesh := range []string{"mem", "tcp"} {
			for _, width := range []int{1, 3} {
				for _, kind := range []faultKind{dropRow, dupRow, swapID} {
					for _, step := range []int{0, 1} {
						f := &fault{kind: kind, worker: worker, step: step, id: id}
						label := fmt.Sprintf("%s/%s/w%d/%v", prog.Name(), mesh, width, f)
						err := runTampered(t, mesh, subs, prog, width, f)
						want := []string{
							fmt.Sprintf("bsp: worker %d: superstep %d: ", worker, f.at+1),
							fmt.Sprintf(" from worker %d is ", f.src),
							", want vertex ",
						}
						if err == nil {
							t.Fatalf("%s: tampered inbox from worker %d at step %d: no error", label, f.src, f.at+1)
						}
						for _, w := range want {
							if !strings.Contains(err.Error(), w) {
								t.Fatalf("%s: err = %v, want it to contain %q", label, err, w)
							}
						}
					}
				}
			}
		}
	}
}

// strayStart wraps a program so that worker 1's step-0 inbox holds one row
// for a vertex it holds. No exchange precedes step 0, so no transport can
// deliver it: the wrapper puts it where the engine's would be.
type strayStart struct{ bsp.Program }

func (p strayStart) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return strayStartWorker{p.Program.NewWorker(sub, env), sub}
}

type strayStartWorker struct {
	bsp.WorkerProgram
	sub *bsp.Subgraph
}

func (w strayStartWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	if step == 0 && w.sub.Part == 1 {
		in.AppendRow(w.sub.GlobalIDs[0], make([]float64, in.Width))
	}
	return w.WorkerProgram.Superstep(step, in)
}

// TestGatherApplyStepZeroExpectsEmptyInbox: step 0 of a fresh run
// receives nothing, so a row there fails the run naming the worker, the
// step and the vertex.
func TestGatherApplyStepZeroExpectsEmptyInbox(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	want := fmt.Sprintf("bsp: worker 1: superstep 0: bsp: 1 rows past the expected ones, first vertex %d",
		subs[1].GlobalIDs[0])
	for _, prog := range []bsp.Program{&apps.PageRank{Iterations: 5}, &apps.Aggregate{Layers: 3}} {
		for _, width := range []int{1, 3} {
			_, err := bsp.Run(t.Context(), subs, strayStart{prog}, bsp.Config{ValueWidth: width})
			if err == nil || err.Error() != want {
				t.Fatalf("%s width %d: err = %v, want %q", prog.Name(), width, err, want)
			}
		}
	}
}

// TestStrayRowFailsCCAndSSSP: every CC and SSSP sender addresses only the
// vertex's replica peers, so a delivered row for a vertex the receiver
// does not hold, or holds but shares with no other worker, is a bug, and
// the run fails naming the worker, the step, the row and the vertex
// instead of folding the row.
func TestStrayRowFailsCCAndSSSP(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k, worker = 4, 1
	subs := buildSubs(t, g, core.New(), k)
	sub := subs[worker]
	rows := []struct {
		name   string
		vertex int
		want   string
	}{{"not held", -1, "does not hold"}, {"held, unreplicated", -1, "holds but does not replicate"}}
	for v := range g.NumVertices() {
		l, held := sub.LocalOf(graph.VertexID(v))
		switch {
		case !held && rows[0].vertex < 0:
			rows[0].vertex = v
		case held && len(sub.PeersOf(l)) == 0 && rows[1].vertex < 0:
			rows[1].vertex = v
		}
	}
	for _, row := range rows {
		if row.vertex < 0 {
			t.Fatalf("worker %d has no vertex that it %s", worker, row.want)
		}
		for _, prog := range []bsp.Program{&apps.CC{}, &apps.SSSP{Source: 0}, &apps.SSSP{Source: 0, Weighted: true}} {
			for _, mesh := range []string{"mem", "tcp"} {
				for _, width := range []int{1, 3} {
					f := &fault{kind: swapID, worker: worker, id: uint32(row.vertex)}
					err := runTampered(t, mesh, subs, prog, width, f)
					prefix := fmt.Sprintf("bsp: worker %d: superstep %d: bsp: inbox row 0 is vertex %d, ", worker, f.at+1, row.vertex)
					if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), row.want) {
						t.Fatalf("%s/%s/%s/w%d: err = %v, want %q…%q", row.name, prog.Name(), mesh, width, err, prefix, row.want)
					}
				}
			}
		}
	}
}
