package bsp_test

import (
	"fmt"
	"slices"
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

// TestStrayRowFailsCCAndSSSP: every SSSP sender addresses only the
// vertex's replica peers, so a delivered row for a vertex the receiver does
// not hold, or holds but shares with no other worker, is a bug, and the
// run fails naming the worker, the step, the row and the vertex instead of
// folding the row. CC's relabelling broadcast reaches every worker, so a
// row for a vertex this worker does not hold is skipped (the run ends as
// the clean one, less the row it replaced, which worker 1 does not use),
// while one that relabels a vertex held unreplicated and not as a root, or
// the root of a component with no link vertex, fails the run naming the
// row.
func TestStrayRowFailsCCAndSSSP(t *testing.T) {
	const k, worker = 4, 1
	// The power-law graph plus a path on three new vertices, all on worker
	// 1: a component there with no link vertex.
	pl := testGraphs(t)["powerlaw"]
	a, err := core.New().Partition(t.Context(), pl, k)
	if err != nil {
		t.Fatal(err)
	}
	n := graph.VertexID(pl.NumVertices())
	g, err := graph.New(int(n)+3, append(slices.Clone(pl.Edges()), graph.Edge{Src: n, Dst: n + 1}, graph.Edge{Src: n + 1, Dst: n + 2}))
	if err != nil {
		t.Fatal(err)
	}
	a.Parts = append(a.Parts, worker, worker)
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	sub := subs[worker]
	root, mask := sub.ComponentRoots(), sub.Routing().Mask
	replicated := func(l int32) bool { return mask[l>>6]&(1<<(l&63)) != 0 }
	linked := map[int32]bool{}
	for _, l := range bsp.ComponentLinks(subs)[worker].Locals {
		linked[root[l]] = true
	}
	// want is SSSP's error suffix, ccWant CC's; an empty one marks a cell
	// that program does not have (CC's "not held" runs clean).
	rows := []struct {
		name, want, ccWant string
		ok                 func(l int32, held bool) bool
		vertex             int
	}{
		{"not held", "does not hold", "", func(_ int32, held bool) bool { return !held }, -1},
		{"held, unreplicated", "holds but does not replicate", "which labels no linked component here",
			func(l int32, held bool) bool { return held && !replicated(l) && root[l] != l }, -1},
		{"unlinked root", "", "which labels no linked component here",
			func(l int32, held bool) bool { return held && root[l] == l && !linked[l] }, -1},
	}
	for i := range rows {
		for v := range g.NumVertices() {
			if l, held := sub.LocalOf(graph.VertexID(v)); rows[i].ok(l, held) {
				rows[i].vertex = v
				break
			}
		}
		if rows[i].vertex < 0 {
			t.Fatalf("worker %d has no %s vertex", worker, rows[i].name)
		}
	}
	for _, row := range rows {
		for _, prog := range []bsp.Program{&apps.CC{}, &apps.SSSP{Source: 0}, &apps.SSSP{Source: 0, Weighted: true}} {
			want, prefix := row.want, "bsp: inbox row 0 is vertex"
			if prog.Name() == "CC" {
				want, prefix = row.ccWant, "apps: CC row 0 relabels vertex"
			} else if want == "" {
				continue
			}
			for _, mesh := range []string{"mem", "tcp"} {
				for _, width := range []int{1, 3} {
					label := fmt.Sprintf("%s/%s/%s/w%d", row.name, prog.Name(), mesh, width)
					f := &fault{kind: swapID, worker: worker, id: uint32(row.vertex)}
					if want == "" {
						clean, err := bsp.Run(t.Context(), subs, prog, bsp.Config{ValueWidth: width})
						if err != nil {
							t.Fatal(err)
						}
						res, err := runFault(t.Context(), t, mesh, subs, prog, bsp.Config{ValueWidth: width}, f)
						if !f.fired.Load() || err != nil || !res.Values.EqualValues(clean.Values) {
							t.Fatalf("%s: fired %t, err = %v, want the clean run's values", label, f.fired.Load(), err)
						}
						continue
					}
					err := runTampered(t, mesh, subs, prog, width, f)
					prefix := fmt.Sprintf("bsp: worker %d: superstep %d: %s %d, ", worker, f.at+1, prefix, row.vertex)
					if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), want) {
						t.Fatalf("%s: err = %v, want %q…%q", label, err, prefix, want)
					}
				}
			}
		}
	}
}
