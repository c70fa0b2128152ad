// Tests for the Pipeline facade: the one-call partition→build→run chain,
// its cancellation behaviour at every stage, and the progress reporting.
package ebv_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"ebv"
)

func pipelineGraph(t testing.TB) *ebv.Graph {
	t.Helper()
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 2000, NumEdges: 16000, Eta: 2.3, Directed: false, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPipelineEndToEnd runs generate → partition → build (with metrics) → CC in
// one call and cross-checks the distributed result against the sequential
// oracle.
func TestPipelineEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var events []ebv.PipelineProgress
	res, err := ebv.NewPipeline(
		ebv.FromGenerator(func() (*ebv.Graph, error) { return pipelineGraph(t), nil }),
		ebv.UsePartitioner(ebv.NewEBV()),
		ebv.Subgraphs(4),
		ebv.OnProgress(func(p ebv.PipelineProgress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		}),
	).Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}

	if res.Graph == nil || res.Assignment == nil || res.BSP == nil || len(res.Subgraphs) != 4 {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.PartitionerName != "EBV" {
		t.Fatalf("PartitionerName = %q, want EBV", res.PartitionerName)
	}
	if res.Metrics.ReplicationFactor < 1 {
		t.Fatalf("replication factor %.3f < 1", res.Metrics.ReplicationFactor)
	}
	want := ebv.SequentialCC(res.Graph)
	for v := range want {
		if got, ok := res.BSP.Value(ebv.VertexID(v)); ok && got != want[v] {
			t.Fatalf("vertex %d: pipeline CC %g, oracle %g", v, got, want[v])
		}
	}

	// Progress: every stage emits a start and a done event, in pipeline
	// order, with the done event carrying the stage duration.
	wantStages := []ebv.PipelineStage{
		ebv.StageLoad, ebv.StagePartition, ebv.StageBuild, ebv.StageRun,
	}
	if len(events) != 2*len(wantStages) {
		t.Fatalf("got %d progress events, want %d", len(events), 2*len(wantStages))
	}
	for i, stage := range wantStages {
		start, done := events[2*i], events[2*i+1]
		if start.Stage != stage || start.Done {
			t.Fatalf("event %d = %+v, want start of %s", 2*i, start, stage)
		}
		if done.Stage != stage || !done.Done {
			t.Fatalf("event %d = %+v, want completion of %s", 2*i+1, done, stage)
		}
	}
}

// TestPipelineFromEdgeList runs a text edge-list file through the
// pipeline: the loaded graph must have the written graph's size, and
// completed stages must report the edges they processed and a
// throughput.
func TestPipelineFromEdgeList(t *testing.T) {
	g := pipelineGraph(t)
	path := filepath.Join(t.TempDir(), "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ebv.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var events []ebv.PipelineProgress
	res, err := ebv.NewPipeline(
		ebv.FromEdgeList(path),
		ebv.Undirected(),
		ebv.Subgraphs(4),
		ebv.OnProgress(func(p ebv.PipelineProgress) { events = append(events, p) }),
	).Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != g.NumVertices() || res.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded V=%d E=%d, wrote V=%d E=%d",
			res.Graph.NumVertices(), res.Graph.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for _, ev := range events {
		if !ev.Done {
			if ev.Items != 0 || ev.Throughput != 0 {
				t.Fatalf("start event carries throughput: %+v", ev)
			}
			continue
		}
		if ev.Items != int64(g.NumEdges()) {
			t.Fatalf("stage %s: Items = %d, want %d", ev.Stage, ev.Items, g.NumEdges())
		}
		if ev.Throughput <= 0 {
			t.Fatalf("stage %s: no throughput on completion event: %+v", ev.Stage, ev)
		}
	}
}

// TestPipelineCancelMidPartition cancels from inside EBV's growth callback,
// so the cancellation lands deterministically mid-partition; Run must
// return ctx.Err() without reaching the later stages.
func TestPipelineCancelMidPartition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawRun bool
	p := ebv.NewPipeline(
		ebv.FromGraph(pipelineGraph(t)),
		ebv.UsePartitioner(ebv.NewEBV(ebv.WithGrowthTracking(512, func(int, float64) { cancel() }))),
		ebv.Subgraphs(4),
		ebv.OnProgress(func(ev ebv.PipelineProgress) {
			if ev.Stage == ebv.StageRun {
				sawRun = true
			}
		}),
	)
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, &ebv.CC{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline ignored cancellation mid-partition")
	}
	if sawRun {
		t.Fatal("pipeline reached StageRun after a mid-partition cancellation")
	}
}

// neverHalt is a program that stays active forever, for mid-superstep
// cancellation tests.
type neverHalt struct{}

func (*neverHalt) Name() string { return "never-halt" }
func (*neverHalt) NewWorker(sub *ebv.Subgraph, env ebv.WorkerEnv) ebv.WorkerProgram {
	return neverHaltWorker{n: sub.NumLocalVertices(), env: env}
}

type neverHaltWorker struct {
	n   int
	env ebv.WorkerEnv
}

func (w neverHaltWorker) Superstep(step int, in *ebv.MessageBatch) ([]*ebv.MessageBatch, bool) {
	return nil, true
}
func (w neverHaltWorker) Values() *ebv.ValueMatrix { return w.env.NewValues(w.n) }

// TestPipelineCancelMidRun cancels while the BSP stage is spinning on a
// program that never quiesces.
func TestPipelineCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := ebv.NewPipeline(
		ebv.FromGraph(pipelineGraph(t)),
		ebv.Subgraphs(4),
		ebv.WithRun(ebv.WithMaxSteps(1<<30)),
		ebv.OnProgress(func(ev ebv.PipelineProgress) {
			if ev.Stage == ebv.StageRun && !ev.Done {
				// Cancel once the run stage has started.
				go func() {
					time.Sleep(20 * time.Millisecond)
					cancel()
				}()
			}
		}),
	)
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, &neverHalt{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline ignored cancellation mid-superstep")
	}
}

// TestPipelinePrecomputedAssignment skips StagePartition when an
// assignment is supplied, and the result flags it.
func TestPipelinePrecomputedAssignment(t *testing.T) {
	g := pipelineGraph(t)
	a, err := ebv.NewEBV().Partition(t.Context(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	var stages []ebv.PipelineStage
	res, err := ebv.NewPipeline(
		ebv.FromGraph(g),
		ebv.UseAssignment(a),
		ebv.OnProgress(func(ev ebv.PipelineProgress) {
			if ev.Done {
				stages = append(stages, ev.Stage)
			}
		}),
	).Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionerName != "precomputed" {
		t.Fatalf("PartitionerName = %q, want precomputed", res.PartitionerName)
	}
	if res.Assignment.K != 3 || len(res.Subgraphs) != 3 {
		t.Fatalf("expected 3 subgraphs, got K=%d len=%d", res.Assignment.K, len(res.Subgraphs))
	}
	for _, s := range stages {
		if s == ebv.StagePartition {
			t.Fatal("StagePartition ran despite a precomputed assignment")
		}
	}
}

// TestPipelineNoSource: a pipeline without an input option fails with a
// diagnostic rather than a nil-pointer panic.
func TestPipelineNoSource(t *testing.T) {
	if _, err := ebv.NewPipeline().Run(context.Background(), &ebv.CC{}); err == nil {
		t.Fatal("expected an error for a pipeline without a source")
	}
}

// TestPipelineTCPLoopback runs the full chain over the real TCP mesh.
func TestPipelineTCPLoopback(t *testing.T) {
	res, err := ebv.NewPipeline(
		ebv.FromGraph(pipelineGraph(t)),
		ebv.Subgraphs(3),
		ebv.UseTCPLoopback(),
	).Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}
	want := ebv.SequentialCC(res.Graph)
	for v := range want {
		if got, ok := res.BSP.Value(ebv.VertexID(v)); ok && got != want[v] {
			t.Fatalf("vertex %d over TCP: got %g, want %g", v, got, want[v])
		}
	}
}

// TestPipelineDefaultOnRoadLattice is the step count behind the default
// partitioner, on road-tcp's graph (a 300 × 300 lattice, seed 1, k = 8)
// over the in-memory mesh. The default finds the lattice local and cuts
// its breadth-first edge order into 8 ranges, so the replication factor
// is at most 1.03 and CC and SSSP from vertex 0 take at most 30
// supersteps together; the paper's degree-sum order (ebv.NewEBV())
// replicates 1.54 and takes about 220 there.
func TestPipelineDefaultOnRoadLattice(t *testing.T) {
	g, err := ebv.Road(ebv.RoadConfig{Width: 300, Height: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ebv.NewPipeline(ebv.FromGraph(g), ebv.Subgraphs(8)).Open(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if name := s.Prepared().PartitionerName; name != "EBV-auto" {
		t.Fatalf("default partitioner %q, want EBV-auto", name)
	}
	if rf := s.Prepared().Metrics.ReplicationFactor; rf > 1.03 {
		t.Errorf("replication factor %.4f, want at most 1.03", rf)
	}
	steps := 0
	for _, job := range []struct {
		prog ebv.Program
		want []float64
	}{
		{&ebv.CC{}, ebv.SequentialCC(g)},
		{&ebv.SSSP{Source: 0}, ebv.SequentialSSSP(g, 0)},
	} {
		res, err := s.Run(t.Context(), job.prog)
		if err != nil {
			t.Fatal(err)
		}
		if !agrees(res.BSP, job.want) {
			t.Errorf("%T disagrees with its sequential oracle", job.prog)
		}
		t.Logf("%T: %d supersteps, %d rows", job.prog, res.BSP.Steps, res.BSP.TotalMessages())
		steps += res.BSP.Steps
	}
	if steps > 30 {
		t.Errorf("CC + SSSP took %d supersteps, want at most 30", steps)
	}
}

// TestPreparedMetricsMatchReference pins the metrics Open and OpenCluster
// read off the built subgraphs to ComputeMetrics over the edge list: every
// ratio bit for bit and both per-part count slices, on random multigraphs
// with self-loops, duplicate edges and isolated vertices (RF's denominator
// counts the isolated ones), for every way a pipeline gets its assignment.
func TestPreparedMetricsMatchReference(t *testing.T) {
	ctx := t.Context()
	rng := rand.New(rand.NewPCG(3, 65))
	multigraph := func(n, isolated, m int) *ebv.Graph {
		edges := make([]ebv.Edge, 0, m)
		for len(edges) < m {
			e := ebv.Edge{Src: ebv.VertexID(rng.IntN(n - isolated)), Dst: ebv.VertexID(rng.IntN(n - isolated))}
			switch rng.IntN(8) {
			case 0:
				e.Dst = e.Src
			case 1:
				edges = append(edges, e)
			}
			edges = append(edges, e)
		}
		g, err := ebv.NewGraph(n, edges[:m])
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := []*ebv.Graph{multigraph(60, 9, 150), multigraph(700, 120, 4000)}

	same := func(t *testing.T, got, want ebv.PartitionMetrics) {
		t.Helper()
		for _, r := range [][2]float64{
			{got.EdgeImbalance, want.EdgeImbalance},
			{got.VertexImbalance, want.VertexImbalance},
			{got.ReplicationFactor, want.ReplicationFactor},
		} {
			if math.Float64bits(r[0]) != math.Float64bits(r[1]) {
				t.Errorf("metrics %+v, want %+v", got, want)
				return
			}
		}
		if !slices.Equal(got.EdgesPerPart, want.EdgesPerPart) || !slices.Equal(got.VerticesPerPart, want.VerticesPerPart) {
			t.Errorf("per-part counts %v / %v, want %v / %v",
				got.EdgesPerPart, got.VerticesPerPart, want.EdgesPerPart, want.VerticesPerPart)
		}
	}
	check := func(t *testing.T, g *ebv.Graph, res *ebv.PipelineResult) {
		t.Helper()
		want, err := ebv.ComputeMetrics(g, res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		same(t, res.Metrics, want)
	}

	for gi, g := range graphs {
		for _, k := range []int{1, 3, 8} {
			random := &ebv.Assignment{K: k, Parts: make([]int32, g.NumEdges())}
			for i := range random.Parts {
				random.Parts[i] = int32(rng.IntN(k))
			}
			surfaces := []struct {
				name string
				opts []ebv.PipelineOption
			}{
				{"default", nil},
				{"EBV", []ebv.PipelineOption{ebv.UsePartitioner(ebv.NewEBV())}},
				{"DBH", []ebv.PipelineOption{ebv.UsePartitioner(&ebv.DBH{})}},
				{"assignment", []ebv.PipelineOption{ebv.UseAssignment(random)}},
			}
			for _, sf := range surfaces {
				t.Run(fmt.Sprintf("g%d/k%d/%s", gi, k, sf.name), func(t *testing.T) {
					opts := append([]ebv.PipelineOption{ebv.FromGraph(g), ebv.Subgraphs(k)}, sf.opts...)
					s, err := ebv.NewPipeline(opts...).Open(ctx)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					check(t, g, s.Prepared())
				})
			}
			t.Run(fmt.Sprintf("g%d/k%d/cluster", gi, k), func(t *testing.T) {
				c, err := ebv.NewPipeline(ebv.FromGraph(g), ebv.Subgraphs(k)).OpenCluster(ctx, ebv.ClusterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				check(t, g, c.Prepared())
			})
		}
	}
}
