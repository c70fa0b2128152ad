package harness

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/ne"
	"ebv/internal/partition"
	"ebv/internal/rng"
)

var locality = flag.Bool("locality", false, "print EXPERIMENTS.md's locality-order tables at full size")

// TestLocalityOrderSection regenerates the tables of EXPERIMENTS.md's
// "Locality-ordered EBV" section:
//
//	go test ./internal/harness -run TestLocalityOrderSection -locality -v
//
// The road graphs are fed with their edges shuffled (rng.New(7)), so the
// generator's row-major edge order helps no partitioner. Without -locality
// the same rows run on small graphs, and the test checks what the section
// rests on: on a road lattice EBV-auto is the local order cut into k
// equal ranges, replicates less than the paper's order and runs CC and
// SSSP in fewer supersteps, and at k = 8 the selector sends only the road
// graphs to the ranges.
func TestLocalityOrderSection(t *testing.T) {
	usaScale, side, erVertices := 0.15, 60, 20_000
	if *locality {
		usaScale, side, erVertices = 1, 300, 100_000
	}
	usa, err := gen.TableIGraph(gen.USARoad, usaScale, 2021)
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Width: side, Height: side, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	out.WriteString("| graph, k | partitioner | RF | EIF | VIF | partition ms | CC steps / rows | SSSP steps / rows |\n|---|---|---|---|---|---|---|---|\n")
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{fmt.Sprintf("USARoad scale %g", usaScale), shuffledEdges(t, usa), 12},
		{fmt.Sprintf("`road` %d × %d", side, side), shuffledEdges(t, road), 8},
	} {
		rows := map[string][2]float64{} // RF, CC + SSSP steps
		parts := map[string][]int32{}
		for _, p := range []struct {
			label string
			part  partition.Partitioner
		}{
			{"EBV (sort, α = β = 1)", core.New()},
			{"EBV-local, α = β = 1", core.New(core.WithOrder(core.OrderLocal))},
			{"EBV-local, α = β = 4", core.New(core.WithOrder(core.OrderLocal), core.WithAlpha(4), core.WithBeta(4))},
			{"EBV-auto", core.New(core.WithOrder(core.OrderAuto))},
			{"NE", &ne.NE{}},
		} {
			start := time.Now()
			a, err := p.part.Partition(t.Context(), c.g, c.k)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			m, err := partition.ComputeMetrics(c.g, a)
			if err != nil {
				t.Fatal(err)
			}
			var steps [2]int
			var jobs [2]string
			for i, app := range []App{AppCC, AppSSSP} {
				res, err := runAssigned(t.Context(), c.g, a, p.label, app, testOpt(), 1)
				if err != nil {
					t.Fatal(err)
				}
				steps[i] = res[0].Steps
				jobs[i] = fmt.Sprintf("%d / %d", res[0].Steps, res[0].TotalMessages())
			}
			rows[p.label] = [2]float64{m.ReplicationFactor, float64(steps[0] + steps[1])}
			parts[p.label] = a.Parts
			fmt.Fprintf(&out, "| %s, %d | %s | %.3f | %.3f | %.3f | %.1f | %s | %s |\n", c.name, c.k, p.label,
				m.ReplicationFactor, m.EdgeImbalance, m.VertexImbalance, elapsed.Seconds()*1e3, jobs[0], jobs[1])
		}
		auto, sorted := rows["EBV-auto"], rows["EBV (sort, α = β = 1)"]
		if !slices.Equal(parts["EBV-auto"], localRanges(c.g, c.k)) {
			t.Errorf("%s: EBV-auto is not the local order cut into %d ranges", c.name, c.k)
		}
		if auto[0] >= sorted[0] || auto[1] >= sorted[1] {
			t.Errorf("%s: EBV-auto RF %.3f, %g steps; the paper's order %.3f, %g", c.name, auto[0], auto[1], sorted[0], sorted[1])
		}
	}

	const k = 8
	fmt.Fprintf(&out, "\n| graph | E[d²]/E[d]² | largest BFS level ÷ vertices | EBV-auto takes at k = %d |\n|---|---|---|---|\n", k)
	type source struct {
		name string
		gen  func() (*graph.Graph, error)
	}
	sources := []source{
		{"USARoad scale 0.1", func() (*graph.Graph, error) { return gen.TableIGraph(gen.USARoad, 0.1, 2021) }},
		{fmt.Sprintf("USARoad scale %g", usaScale), func() (*graph.Graph, error) { return usa, nil }},
		{fmt.Sprintf("`road` %d × %d", side, side), func() (*graph.Graph, error) { return road, nil }},
	}
	for _, d := range []int{3, 8, 16} {
		sources = append(sources, source{fmt.Sprintf("Erdős–Rényi %d vertices, d = %d", erVertices, d), func() (*graph.Graph, error) {
			return gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: erVertices, NumEdges: erVertices * d / 2, Seed: 1})
		}})
	}
	for _, an := range []gen.Analogue{gen.LiveJournal, gen.Twitter, gen.Friendster} {
		sources = append(sources, source{fmt.Sprintf("%s scale %g", an, usaScale), func() (*graph.Graph, error) { return gen.TableIGraph(an, usaScale, 2021) }})
	}
	if *locality {
		sources = append(sources, source{"`powerlaw-mem` (100 000 / 1 000 000, η = 2.2)", func() (*graph.Graph, error) {
			return gen.PowerLaw(gen.PowerLawConfig{NumVertices: 100_000, NumEdges: 1_000_000, Eta: 2.2, Directed: true, Seed: 1})
		}})
	}
	for i, s := range sources {
		g, err := s.gen()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.New(core.WithOrder(core.OrderAuto)).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		ranges, takes := slices.Equal(a.Parts, localRanges(g, k)), "the paper's sort"
		if ranges {
			takes = "ranges"
		} else if paper, err := core.New().Partition(t.Context(), g, k); err != nil || !slices.Equal(a.Parts, paper.Parts) {
			t.Errorf("%s: EBV-auto is neither the ranges nor the paper's sort (%v)", s.name, err)
		}
		if (i < 3) != ranges {
			t.Errorf("%s: EBV-auto takes %s", s.name, takes)
		}
		fmt.Fprintf(&out, "| %s | %.2f | %.3f | %s |\n", s.name, degreeSkew(g), float64(largestLevel(g))/float64(g.NumVertices()), takes)
	}
	t.Log("\n" + out.String())
}

// localRanges is core.LocalOrder cut into k equal ranges: edge j of the
// order goes to part ⌊j·k/|E|⌋.
func localRanges(g *graph.Graph, k int) []int32 {
	recs := core.LocalOrder(g)
	parts := make([]int32, len(recs))
	for j, r := range recs {
		parts[r.ID] = int32(j * k / len(recs))
	}
	return parts
}

// largestLevel is the most vertices one level of an undirected
// breadth-first search from each unvisited vertex in turn holds.
func largestLevel(g *graph.Graph) int {
	adj := make([][]graph.VertexID, g.NumVertices())
	for _, e := range g.Edges() {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	seen := make([]bool, g.NumVertices())
	largest := 0
	for root := range adj {
		if seen[root] {
			continue
		}
		seen[root] = true
		for level := []graph.VertexID{graph.VertexID(root)}; len(level) > 0; {
			largest = max(largest, len(level))
			var next []graph.VertexID
			for _, v := range level {
				for _, u := range adj[v] {
					if !seen[u] {
						seen[u] = true
						next = append(next, u)
					}
				}
			}
			level = next
		}
	}
	return largest
}

// shuffledEdges returns g with its edge list in a seeded random order.
func shuffledEdges(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	edges := slices.Clone(g.Edges())
	rng.New(7).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	out, err := graph.New(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// degreeSkew is E[d²]/E[d]² over total degree, the statistic OrderAuto
// tests against 1.5 before it runs the search.
func degreeSkew(g *graph.Graph) float64 {
	var sum, sq float64
	for v := range g.NumVertices() {
		d := float64(g.Degree(graph.VertexID(v)))
		sum, sq = sum+d, sq+d*d
	}
	return float64(g.NumVertices()) * sq / (sum * sum)
}
