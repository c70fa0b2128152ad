package ebv_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"
	"sync"

	"ebv"
)

// agrees reports whether every vertex res covers holds its oracle value.
func agrees(res *ebv.RunResult, want []float64) bool {
	for v := range want {
		if got, ok := res.Value(ebv.VertexID(v)); ok && got != want[v] {
			return false
		}
	}
	return true
}

// Example demonstrates the core flow: generate a power-law graph,
// partition it with EBV, and inspect the paper's §III-C quality metrics.
func Example() {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 10000, NumEdges: 80000, Eta: 2.4, Directed: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	a, err := ebv.NewEBV().Partition(context.Background(), g, 8)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ebv.ComputeMetrics(g, a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edge imbalance ≈ 1: %t\n", m.EdgeImbalance < 1.1)
	fmt.Printf("vertex imbalance ≈ 1: %t\n", m.VertexImbalance < 1.1)
	fmt.Printf("replication factor < random model: %t\n",
		m.ReplicationFactor < ebv.ExpectedRandomReplication(g, 8))
	// Output:
	// edge imbalance ≈ 1: true
	// vertex imbalance ≈ 1: true
	// replication factor < random model: true
}

// ExamplePipeline_Open partitions a LiveJournal-flavoured power-law graph
// with EBV, its unsorted ablation and three baselines, and orders them by
// each §III-C quality metric, lowest first.
func ExamplePipeline_Open() {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 20000, NumEdges: 200000, Eta: 2.6, Directed: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	var runs []*ebv.PipelineResult
	for _, p := range []ebv.Partitioner{
		ebv.NewEBV(), ebv.NewEBV(ebv.WithOrder(ebv.OrderInput)), &ebv.Ginger{}, &ebv.DBH{}, &ebv.CVC{},
	} {
		s, err := ebv.NewPipeline(ebv.FromGraph(g), ebv.UsePartitioner(p), ebv.Subgraphs(16)).
			Open(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, s.Prepared())
		s.Close()
	}
	for _, metric := range []struct {
		name string
		of   func(ebv.PartitionMetrics) float64
	}{
		{"replication factor", func(m ebv.PartitionMetrics) float64 { return m.ReplicationFactor }},
		{"edge imbalance", func(m ebv.PartitionMetrics) float64 { return m.EdgeImbalance }},
		{"vertex imbalance", func(m ebv.PartitionMetrics) float64 { return m.VertexImbalance }},
	} {
		sort.SliceStable(runs, func(i, j int) bool { return metric.of(runs[i].Metrics) < metric.of(runs[j].Metrics) })
		names := make([]string, len(runs))
		for i, r := range runs {
			names[i] = r.PartitionerName
		}
		fmt.Printf("%s: %s\n", metric.name, strings.Join(names, " < "))
	}
	// Output:
	// replication factor: EBV < EBV-unsort < DBH < Ginger < CVC
	// edge imbalance: EBV < EBV-unsort < Ginger < DBH < CVC
	// vertex imbalance: EBV < Ginger < EBV-unsort < CVC < DBH
}

// ExamplePipeline_Run finds the communities of a power-law social network
// in one call (generate → EBV partition → build → BSP run) and
// checks them against the sequential oracle.
func ExamplePipeline_Run() {
	var stages []string
	res, err := ebv.NewPipeline(
		ebv.FromGenerator(func() (*ebv.Graph, error) {
			return ebv.PowerLaw(ebv.PowerLawConfig{NumVertices: 30000, NumEdges: 45000, Eta: 2.5, Seed: 7})
		}),
		ebv.UsePartitioner(ebv.NewEBV()),
		ebv.Subgraphs(8),
		ebv.OnProgress(func(p ebv.PipelineProgress) {
			if p.Done {
				stages = append(stages, string(p.Stage))
			}
		}),
	).Run(context.Background(), &ebv.CC{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stages:", strings.Join(stages, " → "))
	fmt.Printf("CC: %d supersteps, %d rows\n", res.BSP.Steps, res.BSP.TotalMessages())
	sizes, largest := map[float64]int{}, 0
	for v := 0; v < res.Graph.NumVertices(); v++ {
		if label, ok := res.BSP.Value(ebv.VertexID(v)); ok {
			sizes[label]++
			largest = max(largest, sizes[label])
		}
	}
	fmt.Printf("%d communities, the largest with %d members\n", len(sizes), largest)
	fmt.Println("agrees with SequentialCC:", agrees(res.BSP, ebv.SequentialCC(res.Graph)))
	// Output:
	// stages: load → partition → build → run
	// CC: 10 supersteps, 3891 rows
	// 388 communities, the largest with 23653 members
	// agrees with SequentialCC: true
}

// ExampleRunBSP runs connected components on the subgraph-centric engine
// and verifies it against the sequential oracle.
func ExampleRunBSP() {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 5000, NumEdges: 20000, Eta: 2.5, Directed: false, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	a, err := ebv.NewEBV().Partition(context.Background(), g, 4)
	if err != nil {
		log.Fatal(err)
	}
	subs, err := ebv.BuildSubgraphs(g, a)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ebv.RunBSP(context.Background(), subs, &ebv.CC{}, ebv.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed CC equals sequential oracle: %t\n", agrees(res, ebv.SequentialCC(g)))
	// Output:
	// distributed CC equals sequential oracle: true
}

// ExampleRunBSP_sssp runs shortest paths over a road lattice partitioned by
// EBV and by NE, the local-based algorithm the paper shows winning on
// non-power-law graphs (Figure 3): NE's contiguous parts need fewer
// supersteps and rows.
func ExampleRunBSP_sssp() {
	ctx := context.Background()
	g, err := ebv.Road(ebv.RoadConfig{Width: 120, Height: 120, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	want := ebv.SequentialSSSP(g, 0)
	for _, p := range []ebv.Partitioner{ebv.NewEBV(), &ebv.NE{}} {
		a, err := p.Partition(ctx, g, 8)
		if err != nil {
			log.Fatal(err)
		}
		subs, err := ebv.BuildSubgraphs(g, a)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ebv.RunBSP(ctx, subs, &ebv.SSSP{Source: 0}, ebv.RunConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d supersteps, %d rows, agrees with SequentialSSSP: %t\n",
			p.Name(), res.Steps, res.TotalMessages(), agrees(res, want))
	}
	// Output:
	// EBV: 68 supersteps, 18245 rows, agrees with SequentialSSSP: true
	// NE: 32 supersteps, 5118 rows, agrees with SequentialSSSP: true
}

// ExamplePageRank ranks the pages of an R-MAT web graph on EBV's and DBH's
// partitions, against the vertex-centric engine's run of the same rounds.
func ExamplePageRank() {
	ctx := context.Background()
	g, err := ebv.RMAT(ebv.RMATConfig{ScaleLog2: 13, NumEdges: 100000, Directed: true, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	const iters = 15
	vc, err := ebv.RunPregel(ctx, g, 8, &ebv.PregelPageRank{Iterations: iters}, ebv.PregelConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vertex-centric: %d messages\n", vc.TotalMessages())
	var ranks []float64
	for _, p := range []ebv.Partitioner{ebv.NewEBV(), &ebv.DBH{}} {
		res, err := ebv.NewPipeline(ebv.FromGraph(g), ebv.UsePartitioner(p), ebv.Subgraphs(8)).
			Run(ctx, &ebv.PageRank{Iterations: iters})
		if err != nil {
			log.Fatal(err)
		}
		agree := true
		for v := 0; v < g.NumVertices(); v++ {
			if got, ok := res.BSP.Value(ebv.VertexID(v)); ok && math.Abs(got-vc.Values.At(v, 0)) > 1e-9 {
				agree = false
			}
		}
		fmt.Printf("%s: %d rows, agrees with the vertex-centric run: %t\n",
			res.PartitionerName, res.BSP.TotalMessages(), agree)
		if ranks == nil {
			ranks = make([]float64, g.NumVertices())
			for v := range ranks {
				ranks[v], _ = res.BSP.Value(ebv.VertexID(v))
			}
		}
	}
	top := make([]int, len(ranks))
	for v := range top {
		top[v] = v
	}
	sort.SliceStable(top, func(i, j int) bool { return ranks[top[i]] > ranks[top[j]] })
	fmt.Println("top pages:", top[:5])
	// Output:
	// vertex-centric: 296784 messages
	// EBV: 245220 rows, agrees with the vertex-centric run: true
	// DBH: 273960 rows, agrees with the vertex-centric run: true
	// top pages: [0 1 4096 256 16]
}

// ExampleAggregate runs two GraphSAGE-mean layers over 8-wide feature
// vectors on a TCP loopback mesh, each replica row checked against its
// master, and compares every column with the sequential oracle.
func ExampleAggregate() {
	const width, layers = 8, 2
	feature := func(v ebv.VertexID, feat []float64) {
		for j := range feat {
			feat[j] = float64((uint64(v)*31 + uint64(j)*17) % 13)
		}
	}
	res, err := ebv.NewPipeline(
		ebv.FromGenerator(func() (*ebv.Graph, error) {
			return ebv.PowerLaw(ebv.PowerLawConfig{NumVertices: 5000, NumEdges: 30000, Eta: 2.3, Directed: true, Seed: 42})
		}),
		ebv.UsePartitioner(ebv.NewEBV()),
		ebv.Subgraphs(4),
		ebv.UseTCPLoopback(),
		ebv.WithRun(ebv.WithValueWidth(width)),
	).Run(context.Background(), &ebv.Aggregate{Layers: layers, Feature: feature})
	if err != nil {
		log.Fatal(err)
	}
	want := ebv.SequentialAggregate(res.Graph, layers, width, feature)
	agree := true
	for v := 0; v < res.Graph.NumVertices(); v++ {
		row, _ := res.BSP.Row(ebv.VertexID(v))
		for j, got := range row {
			agree = agree && math.Abs(got-want.At(v, j)) <= 1e-9
		}
	}
	fmt.Printf("%d supersteps, %d feature rows\n", res.BSP.Steps, res.BSP.TotalMessages())
	fmt.Println("within 1e-9 of SequentialAggregate:", agree)
	// Output:
	// 5 supersteps, 15228 feature rows
	// within 1e-9 of SequentialAggregate: true
}

// ExampleSession prepares one deployment and serves concurrent CC,
// PageRank and SSSP jobs on it, CC and SSSP checked against their
// sequential oracles: first over the in-memory mesh, then over a TCP
// loopback mesh. Both legs print the same lines.
func ExampleSession() {
	ctx := context.Background()
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{NumVertices: 5000, NumEdges: 40000, Eta: 2.2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	want := map[string][]float64{"CC": ebv.SequentialCC(g), "SSSP": ebv.SequentialSSSP(g, 0)}
	for _, transport := range [][]ebv.PipelineOption{nil, {ebv.UseTCPLoopback()}} {
		opts := append([]ebv.PipelineOption{ebv.FromGraph(g), ebv.UsePartitioner(ebv.NewEBV()), ebv.Subgraphs(8)}, transport...)
		s, err := ebv.NewPipeline(opts...).Open(ctx)
		if err != nil {
			log.Fatal(err)
		}
		progs := []ebv.Program{&ebv.CC{}, &ebv.PageRank{Iterations: 8}, &ebv.SSSP{}}
		jobs, errs := make([]*ebv.JobResult, len(progs)), make([]error, len(progs))
		var wg sync.WaitGroup
		for q, prog := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				jobs[q], errs[q] = s.Run(ctx, prog)
			}()
		}
		wg.Wait()
		if err := errors.Join(append(errs, s.Close())...); err != nil {
			log.Fatal(err)
		}
		for _, jr := range jobs {
			line := fmt.Sprintf("%s: %d supersteps, %d rows", jr.Program, jr.BSP.Steps, jr.BSP.TotalMessages())
			if w, ok := want[jr.Program]; ok {
				line += fmt.Sprintf(", agrees with the oracle: %t", agrees(jr.BSP, w))
			}
			fmt.Println(line)
		}
	}
	// Output:
	// CC: 4 supersteps, 72 rows, agrees with the oracle: true
	// PR: 17 supersteps, 93616 rows
	// SSSP: 4 supersteps, 15649 rows, agrees with the oracle: true
	// CC: 4 supersteps, 72 rows, agrees with the oracle: true
	// PR: 17 supersteps, 93616 rows
	// SSSP: 4 supersteps, 15649 rows, agrees with the oracle: true
}

// ExampleNewEBV_options shows the α/β weights and edge-order knobs of the
// evaluation function (§IV-C).
func ExampleNewEBV_options() {
	p := ebv.NewEBV(
		ebv.WithAlpha(2),              // stronger edge-balance pressure
		ebv.WithBeta(0.5),             // weaker vertex-balance pressure
		ebv.WithOrder(ebv.OrderInput), // skip the sorting preprocessing
	)
	fmt.Println(p.Name())
	fmt.Println(p.Alpha(), p.Beta())
	// Output:
	// EBV-unsort
	// 2 0.5
}

// ExampleNewStreamingEBV feeds an edge stream through the one-pass variant.
func ExampleNewStreamingEBV() {
	s, err := ebv.NewStreamingEBV(ebv.StreamingEBVConfig{K: 2, NumVertices: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range []ebv.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}} {
		if err := s.Add(e); err != nil {
			log.Fatal(err)
		}
	}
	s.Flush()
	counts := s.EdgeCounts()
	fmt.Println(counts[0]+counts[1] == 3)
	// Output:
	// true
}
