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
// rests on: on a road lattice EBV-auto is the local order at α = β = 4,
// replicates less than the paper's order and runs CC and SSSP in fewer
// supersteps, and the skew test sends only the road graphs to it.
func TestLocalityOrderSection(t *testing.T) {
	usaScale, side := 0.15, 60
	if *locality {
		usaScale, side = 1, 300
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
		rows := map[string][3]float64{}
		for _, p := range []struct {
			label string
			part  partition.Partitioner
		}{
			{"EBV (sort, α = β = 1)", core.New()},
			{"EBV-local, α = β = 1", core.New(core.WithOrder(core.OrderLocal))},
			{"EBV-local, α = β = 2", core.New(core.WithOrder(core.OrderLocal), core.WithAlpha(2), core.WithBeta(2))},
			{"EBV-local, α = β = 4", core.New(core.WithOrder(core.OrderLocal), core.WithAlpha(4), core.WithBeta(4))},
			{"EBV-local, α = β = 10", core.New(core.WithOrder(core.OrderLocal), core.WithAlpha(10), core.WithBeta(10))},
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
			rows[p.label] = [3]float64{m.ReplicationFactor, m.EdgeImbalance, float64(steps[0] + steps[1])}
			fmt.Fprintf(&out, "| %s, %d | %s | %.3f | %.3f | %.3f | %.1f | %s | %s |\n", c.name, c.k, p.label,
				m.ReplicationFactor, m.EdgeImbalance, m.VertexImbalance, elapsed.Seconds()*1e3, jobs[0], jobs[1])
		}
		auto, sorted := rows["EBV-auto"], rows["EBV (sort, α = β = 1)"]
		if auto != rows["EBV-local, α = β = 4"] {
			t.Errorf("%s: EBV-auto %v is not the local order at α = β = 4 %v", c.name, auto, rows["EBV-local, α = β = 4"])
		}
		if auto[0] >= sorted[0] || auto[2] >= sorted[2] {
			t.Errorf("%s: EBV-auto RF %.3f, %g steps; the paper's order %.3f, %g", c.name, auto[0], auto[2], sorted[0], sorted[2])
		}
	}

	out.WriteString("\n| graph | E[d²]/E[d]² | EBV-auto takes |\n|---|---|---|\n")
	type source struct {
		name string
		gen  func() (*graph.Graph, error)
	}
	skewed := []source{
		{"USARoad scale 0.1", func() (*graph.Graph, error) { return gen.TableIGraph(gen.USARoad, 0.1, 2021) }},
		{fmt.Sprintf("USARoad scale %g", usaScale), func() (*graph.Graph, error) { return usa, nil }},
		{fmt.Sprintf("`road` %d × %d", side, side), func() (*graph.Graph, error) { return road, nil }},
	}
	for _, an := range []gen.Analogue{gen.LiveJournal, gen.Twitter, gen.Friendster} {
		skewed = append(skewed, source{fmt.Sprintf("%s scale %g", an, usaScale), func() (*graph.Graph, error) { return gen.TableIGraph(an, usaScale, 2021) }})
	}
	if *locality {
		skewed = append(skewed, source{"`powerlaw-mem` (100 000 / 1 000 000, η = 2.2)", func() (*graph.Graph, error) {
			return gen.PowerLaw(gen.PowerLawConfig{NumVertices: 100_000, NumEdges: 1_000_000, Eta: 2.2, Directed: true, Seed: 1})
		}})
	}
	for i, s := range skewed {
		g, err := s.gen()
		if err != nil {
			t.Fatal(err)
		}
		skew, takes := degreeSkew(g), "the paper's sort"
		if skew <= 1.5 {
			takes = "the local order"
		}
		if (i < 3) != (skew <= 1.5) {
			t.Errorf("%s: skew %.2f on the wrong side of 1.5", s.name, skew)
		}
		fmt.Fprintf(&out, "| %s | %.2f | %s |\n", s.name, skew, takes)
	}
	t.Log("\n" + out.String())
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
// tests against 1.5.
func degreeSkew(g *graph.Graph) float64 {
	var sum, sq float64
	for v := range g.NumVertices() {
		d := float64(g.Degree(graph.VertexID(v)))
		sum, sq = sum+d, sq+d*d
	}
	return float64(g.NumVertices()) * sq / (sum * sum)
}
