package bsp_test

import (
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// emptyProgram runs steps supersteps that send nothing, so a superstep
// costs only the engine's and the transport's floor: the barrier, the
// vote and, on TCP, one exchange of empty frames.
type emptyProgram struct{ steps int }

func (p emptyProgram) Name() string { return "empty" }

func (p emptyProgram) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &emptyWorker{steps: p.steps, rows: len(sub.GlobalIDs), env: env}
}

type emptyWorker struct {
	steps, rows int
	env         bsp.Env
}

func (w *emptyWorker) Superstep(step int, _ *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	return nil, step < w.steps-1
}

func (w *emptyWorker) Values() *graph.ValueMatrix { return w.env.NewValues(w.rows) }

// BenchmarkStepFloor reports the per-superstep floor at k = 8 in µs/step:
// an empty program over the in-memory deployment and over the loopback
// TCP mesh, one resident deployment per transport, one job per op.
func BenchmarkStepFloor(b *testing.B) {
	const k, steps = 8, 200
	g, err := gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	a, err := (&partition.DBH{}).Partition(b.Context(), g, k)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mesh func() (transport.Deployment, error)
	}{
		{"mem", func() (transport.Deployment, error) { return nil, nil }},
		{"tcp", func() (transport.Deployment, error) { return transport.NewTCPMeshDeployment(b.Context(), k) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mesh, err := tc.mesh()
			if err != nil {
				b.Fatal(err)
			}
			dep, err := bsp.NewDeployment(subs, mesh)
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dep.Run(b.Context(), emptyProgram{steps}, bsp.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Steps != steps {
					b.Fatalf("empty program ran %d steps, want %d", res.Steps, steps)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*steps), "µs/step")
		})
	}
}
