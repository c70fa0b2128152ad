// Tests for gatherApply, the master/mirror protocol PageRank and Aggregate
// share: both must match their sequential oracles at widths 1 and 3 on any
// partition shape, resume from any checkpoint epoch bit for bit, and refuse
// a snapshot of another width by name.
package apps

import (
	"math"
	"strings"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// checkNear fails unless every covered vertex's row is within 1e-9 of its
// row of want, column by column.
func checkNear(tb testing.TB, name string, want *graph.ValueMatrix, res *bsp.Result) {
	tb.Helper()
	for v := range want.Rows() {
		got, ok := res.Row(graph.VertexID(v))
		if !ok {
			continue
		}
		for j, w := range want.Row(v) {
			if math.Abs(got[j]-w) > 1e-9 {
				tb.Fatalf("%s: vertex %d column %d: value %g, oracle %g", name, v, j, got[j], w)
			}
		}
	}
}

// FuzzGatherApplyMatchesSequential: bytes become a small multigraph, a part
// count, a width, a hash salt and an epoch; PageRank and Aggregate over a
// seeded hash partition and over EBV must come within 1e-9 of the oracles,
// checkpointing every step, and a resume from the chosen epoch must
// reproduce the uninterrupted run bit for bit.
func FuzzGatherApplyMatchesSequential(f *testing.F) {
	f.Add([]byte{12, 3, 0, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 8, 8, 9, 9, 10, 10, 11})
	f.Add([]byte{9, 8, 1, 1, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0})
	f.Add([]byte{30, 4, 5, 5, 29, 28, 28, 27, 3, 3, 10, 11, 11, 10, 20, 21, 21, 22, 22, 20, 29, 0, 0, 29})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		const iters, layers = 5, 3
		n, k := 1+int(data[0])%48, 1+int(data[1])%8
		width, epoch, salt := 1+2*int(data[2]%2), 1+int(data[2]/2)%8, uint64(data[3])
		var edges []graph.Edge
		for i := 4; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(int(data[i]) % n), Dst: graph.VertexID(int(data[i+1]) % n)})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		rank := graph.NewValueMatrix(n, width)
		for v, r := range SequentialPageRank(g, iters, 0.85) {
			rank.SetScalar(v, r)
		}
		for _, p := range []partition.Partitioner{&partition.Random{Salt: salt}, core.New()} {
			subs := buildSSSPSubs(t, g, p, k)
			for _, tc := range []struct {
				prog bsp.Program
				want *graph.ValueMatrix
			}{
				{&PageRank{Iterations: iters}, rank},
				{&Aggregate{Layers: layers}, SequentialAggregate(g, layers, width, nil)},
			} {
				name := tc.prog.Name() + " " + p.Name()
				store := &epochStore{k: k, epochs: make(map[int][]*bsp.Checkpoint)}
				res, err := bsp.Run(t.Context(), subs, tc.prog, bsp.Config{
					ValueWidth: width, CheckpointEvery: 1, CheckpointSink: store.sink,
				})
				if err != nil {
					t.Fatalf("%s k=%d w=%d: %v", name, k, width, err)
				}
				checkNear(t, name, tc.want, res)
				cps := store.epochs[min(epoch, len(store.epochs))]
				if cps == nil {
					continue
				}
				resumed, err := bsp.Run(t.Context(), subs, tc.prog, bsp.Config{
					ValueWidth: width, Resume: cps,
				})
				if err != nil {
					t.Fatalf("%s k=%d w=%d: resume from %d: %v", name, k, width, cps[0].Step, err)
				}
				if resumed.Steps != res.Steps || !resumed.Values.EqualValues(res.Values) {
					t.Fatalf("%s k=%d w=%d: resume from %d: %d steps, want %d, or values differ", name, k, width,
						cps[0].Step, resumed.Steps, res.Steps)
				}
			}
		}
	})
}

// TestGatherApplyRefusesOtherWidthSnapshot: a snapshot is (h | partial) at
// twice the run's width, so a width-4 PageRank run refuses the two-column
// snapshot a width-1 run writes, naming the program and both widths.
func TestGatherApplyRefusesOtherWidthSnapshot(t *testing.T) {
	const k = 3
	powerlaw, _ := emissionGraphs(t)
	subs := buildSSSPSubs(t, powerlaw, core.New(), k)
	store := &epochStore{k: k, epochs: make(map[int][]*bsp.Checkpoint)}
	prog := &PageRank{Iterations: 2}
	if _, err := bsp.Run(t.Context(), subs, prog, bsp.Config{ValueWidth: 4, CheckpointEvery: 1, CheckpointSink: store.sink}); err != nil {
		t.Fatal(err)
	}
	cps := store.epochs[1]
	for w, cp := range cps {
		if cp.State.Width != 8 {
			t.Fatalf("worker %d: snapshot width %d, want 8", w, cp.State.Width)
		}
		cp.State = graph.NewValueMatrix(subs[w].NumLocalVertices(), 2)
	}
	_, err := bsp.Run(t.Context(), subs, prog, bsp.Config{ValueWidth: 4, Resume: cps})
	if err == nil || !strings.Contains(err.Error(), "PR snapshot width 2, want 8") {
		t.Fatalf("err = %v, want the width check naming PR", err)
	}
}
