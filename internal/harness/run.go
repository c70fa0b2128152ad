package harness

import (
	"context"
	"fmt"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/pregel"
)

// App names the three evaluation applications.
type App string

// The paper's three applications (§V-A).
const (
	AppCC   App = "CC"
	AppPR   App = "PR"
	AppSSSP App = "SSSP"
)

// Apps lists them in the paper's order.
func Apps() []App { return []App{AppCC, AppPR, AppSSSP} }

// vertexProgram builds the vertex-centric comparator program for an app.
func (a App) vertexProgram(opt Options) (pregel.VertexProgram, error) {
	switch a {
	case AppCC:
		return &pregel.CC{}, nil
	case AppPR:
		return &pregel.PageRank{Iterations: opt.prIters()}, nil
	case AppSSSP:
		return &pregel.SSSP{Source: 0}, nil
	default:
		return nil, fmt.Errorf("harness: unknown app %q", a)
	}
}

// runBSP partitions g with p into k subgraphs and runs the app on the
// subgraph-centric engine over the in-memory transport. Both stages honor
// ctx.
func runBSP(ctx context.Context, g *graph.Graph, p partition.Partitioner, k int, app App, opt Options) (*bsp.Result, error) {
	out, err := runBSPRepeats(ctx, g, p, k, app, opt, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// runBSPRepeats is runBSP in the Session pattern: the cell's graph is
// partitioned and its subgraphs built ONCE, then the app is served repeat
// times as jobs of one shared deployment. Repeated timing experiments
// (Table II under Options.Repeat) therefore measure execution latency in
// the prepare-once/serve-many regime instead of re-paying the partition
// and build cost per repeat — EXPERIMENTS.md records the amortization.
func runBSPRepeats(ctx context.Context, g *graph.Graph, p partition.Partitioner, k int, app App, opt Options, repeat int) ([]*bsp.Result, error) {
	a, err := p.Partition(ctx, g, k)
	if err != nil {
		return nil, fmt.Errorf("harness: %s partition: %w", p.Name(), err)
	}
	return runAssigned(ctx, g, a, p.Name(), app, opt, repeat)
}

// runAssigned is runBSPRepeats over an assignment the caller already
// computed with the partitioner named name.
func runAssigned(ctx context.Context, g *graph.Graph, a *partition.Assignment, name string, app App, opt Options, repeat int) ([]*bsp.Result, error) {
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		return nil, fmt.Errorf("harness: %s subgraphs: %w", name, err)
	}
	prog, err := apps.ByName(string(app), apps.Params{Iterations: opt.prIters()}) // SSSP from source 0
	if err != nil {
		return nil, err
	}
	dep, err := bsp.NewDeployment(subs, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: %s deployment: %w", name, err)
	}
	defer dep.Close()
	out := make([]*bsp.Result, repeat)
	for r := range out {
		res, err := dep.Run(ctx, prog, bsp.Config{})
		if err != nil {
			return nil, fmt.Errorf("harness: run %s over %s (job %d): %w", app, name, r+1, err)
		}
		out[r] = res
	}
	return out, nil
}

// runVC runs the vertex-centric comparator engine.
func runVC(ctx context.Context, g *graph.Graph, k int, app App, opt Options) (*pregel.Result, error) {
	prog, err := app.vertexProgram(opt)
	if err != nil {
		return nil, err
	}
	res, err := pregel.Run(ctx, g, k, prog, pregel.Config{})
	if err != nil {
		return nil, fmt.Errorf("harness: vertex-centric %s: %w", app, err)
	}
	return res, nil
}
