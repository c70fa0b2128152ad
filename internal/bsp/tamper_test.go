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

// tamperMesh is a transport.Deployment whose jobs let edit rewrite what one
// worker's exchange delivered: a fault no frame checksum catches, because
// the bytes arrive as sent and only the rows are wrong. edit sees the
// batches by source and returns the source it changed, or -1 to wait for a
// later step; it fires once, at the first exchange of worker from step on
// that it changes.
type tamperMesh struct {
	transport.Deployment
	*tamper
}

type tamper struct {
	worker, step int
	edit         func(in []*transport.MessageBatch) int
	// firedStep and src record the exchange edit changed (firedStep -1:
	// none); only worker's goroutine writes them, before Run returns.
	firedStep, src int
}

func (m tamperMesh) OpenJob(job uint32, width int) ([]transport.Transport, error) {
	trs, err := m.Deployment.OpenJob(job, width)
	if err != nil {
		return nil, err
	}
	for w := range trs {
		trs[w] = tamperTransport{trs[w], m.tamper}
	}
	return trs, nil
}

type tamperTransport struct {
	transport.Transport
	*tamper
}

func (t tamperTransport) Exchange(worker, step int, out []*transport.MessageBatch, active bool) (transport.ExchangeResult, error) {
	ex, err := t.Transport.Exchange(worker, step, out, active)
	if err == nil && worker == t.worker && step >= t.step && t.firedStep < 0 {
		if t.src = t.edit(ex.In); t.src >= 0 {
			t.firedStep = step
		}
	}
	return ex, err
}

// runTampered runs prog over subs on a fresh mesh by name ("mem" or "tcp")
// whose deliveries to worker from step on pass through edit. It returns
// the tamper, naming the step and source edit changed, and the run's error.
func runTampered(t *testing.T, mesh string, subs []*bsp.Subgraph, prog bsp.Program, width, worker, step int,
	edit func(in []*transport.MessageBatch) int) (*tamper, error) {
	t.Helper()
	k := len(subs)
	base := meshByName(t, mesh, k)
	if base == nil {
		mem, err := transport.NewMemDeployment(k)
		if err != nil {
			t.Fatal(err)
		}
		base = mem
	}
	tp := &tamper{worker: worker, step: step, edit: edit, firedStep: -1}
	_, err := runOnMesh(t.Context(), subs, tamperMesh{base, tp}, prog,
		bsp.Config{ValueWidth: width, VerifyReplicaAgreement: true})
	if tp.firedStep < 0 {
		t.Fatalf("no delivery to worker %d from step %d on was tampered with (run error: %v)", worker, step, err)
	}
	return tp, err
}

// firstSource returns the lowest source other than self whose batch holds
// at least rows rows, or -1.
func firstSource(in []*transport.MessageBatch, self, rows int) int {
	for src, b := range in {
		if src != self && b.Len() >= rows {
			return src
		}
	}
	return -1
}

// TestTamperedGatherApplyInboxFails: PageRank's and Aggregate's receive
// walks the routing columns the step expects, so an inbox that is not
// exactly their concatenation (a source's last row dropped, a row
// duplicated, an id swapped for another vertex the receiver holds) fails
// the run naming the worker, the step and the source, on Mem and TCP, at
// widths 1 and 3. The exchange before step 1 delivers the mirrors'
// partials (an apply inbox), the one before step 2 the masters' scatter (a
// gather inbox).
func TestTamperedGatherApplyInboxFails(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k, worker = 4, 1
	subs := buildSubs(t, g, core.New(), k)
	held := subs[worker].GlobalIDs
	cases := map[string]func(in []*transport.MessageBatch) int{
		"drop last row": func(in []*transport.MessageBatch) int {
			src := firstSource(in, worker, 1)
			if src >= 0 {
				b := in[src]
				b.IDs, b.Vals = b.IDs[:b.Len()-1], b.Vals[:(b.Len()-1)*b.Width]
			}
			return src
		},
		"duplicate row": func(in []*transport.MessageBatch) int {
			src := firstSource(in, worker, 2)
			if src >= 0 {
				b := in[src]
				row := slices.Clone(b.Row(0))
				b.IDs = slices.Insert(b.IDs, 1, b.IDs[0])
				b.Vals = slices.Insert(b.Vals, b.Width, row...)
			}
			return src
		},
		"swap id": func(in []*transport.MessageBatch) int {
			src := firstSource(in, worker, 1)
			if src >= 0 {
				b := in[src]
				if b.IDs[0] == held[0] {
					b.IDs[0] = held[1]
				} else {
					b.IDs[0] = held[0]
				}
			}
			return src
		},
	}
	for _, prog := range []bsp.Program{&apps.PageRank{Iterations: 5}, &apps.Aggregate{Layers: 3}} {
		for _, mesh := range []string{"mem", "tcp"} {
			for _, width := range []int{1, 3} {
				for name, edit := range cases {
					for _, step := range []int{0, 1} {
						label := fmt.Sprintf("%s/%s/w%d/%s/step%d", prog.Name(), mesh, width, name, step)
						tp, err := runTampered(t, mesh, subs, prog, width, worker, step, edit)
						want := []string{
							fmt.Sprintf("bsp: worker %d: superstep %d: ", worker, tp.firedStep+1),
							fmt.Sprintf(" from worker %d is ", tp.src),
							", want vertex ",
						}
						if err == nil {
							t.Fatalf("%s: tampered inbox from worker %d at step %d: no error", label, tp.src, tp.firedStep+1)
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
		edit := func(in []*transport.MessageBatch) int {
			src := firstSource(in, worker, 1)
			if src >= 0 {
				in[src].IDs[0] = graph.VertexID(row.vertex)
			}
			return src
		}
		for _, prog := range []bsp.Program{&apps.CC{}, &apps.SSSP{Source: 0}, &apps.SSSP{Source: 0, Weighted: true}} {
			for _, mesh := range []string{"mem", "tcp"} {
				for _, width := range []int{1, 3} {
					tp, err := runTampered(t, mesh, subs, prog, width, worker, 0, edit)
					prefix := fmt.Sprintf("bsp: worker %d: superstep %d: bsp: inbox row 0 is vertex %d, ", worker, tp.firedStep+1, row.vertex)
					if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), row.want) {
						t.Fatalf("%s/%s/%s/w%d: err = %v, want %q…%q", row.name, prog.Name(), mesh, width, err, prefix, row.want)
					}
				}
			}
		}
	}
}
