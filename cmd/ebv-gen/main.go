// Command ebv-gen generates a synthetic workload graph and writes it in
// the text or binary edge-list format, or describes an existing graph file
// with Table I style statistics.
//
// Usage:
//
//	ebv-gen -kind powerlaw -vertices 100000 -edges 1000000 -eta 2.2 -out g.txt
//	ebv-gen -kind road -width 500 -height 500 -out road.bin -format binary
//	ebv-gen -kind rmat -scale 18 -edges 4000000 -out rmat.txt
//	ebv-gen -kind analogue -analogue Twitter -graphscale 1.0 -out tw.bin -format binary
//	ebv-gen -describe g.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ebv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebv-gen:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		kind       = flag.String("kind", "powerlaw", "generator: powerlaw | rmat | road | er | analogue")
		vertices   = flag.Int("vertices", 100000, "vertex count (powerlaw, er)")
		edges      = flag.Int("edges", 1000000, "edge count (powerlaw, rmat, er)")
		eta        = flag.Float64("eta", 2.2, "power-law exponent (powerlaw)")
		directed   = flag.Bool("directed", true, "directed output (powerlaw, rmat, er)")
		width      = flag.Int("width", 300, "lattice width (road)")
		height     = flag.Int("height", 300, "lattice height (road)")
		scaleLog   = flag.Int("scale", 16, "log2 vertex count (rmat)")
		analogue   = flag.String("analogue", "LiveJournal", "Table I graph (analogue): USARoad | LiveJournal | Twitter | Friendster")
		graphScale = flag.Float64("graphscale", 1.0, "size multiplier (analogue)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		out        = flag.String("out", "", "output path (default stdout)")
		format     = flag.String("format", "text", "output format: text | binary")
		describe   = flag.String("describe", "", "describe an existing edge-list file instead of generating")
		undirected = flag.Bool("describe-undirected", false, "treat -describe input as undirected")
	)
	flag.Parse()

	if *describe != "" {
		return describeFile(*describe, *undirected)
	}

	g, err := generate(*kind, genParams{
		vertices: *vertices, edges: *edges, eta: *eta, directed: *directed,
		width: *width, height: *height, scaleLog: *scaleLog,
		analogue: *analogue, graphScale: *graphScale, seed: *seed,
	})
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			return cerr
		}
		// The close error is the data-loss error on a written file: join it
		// into the return instead of dropping it (closeerr).
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	switch *format {
	case "text":
		return ebv.WriteEdgeList(w, g)
	case "binary":
		return ebv.WriteBinaryGraph(w, g)
	default:
		return fmt.Errorf("unknown format %q (want text or binary)", *format)
	}
}

type genParams struct {
	vertices, edges int
	eta             float64
	directed        bool
	width, height   int
	scaleLog        int
	analogue        string
	graphScale      float64
	seed            uint64
}

func generate(kind string, p genParams) (*ebv.Graph, error) {
	switch kind {
	case "powerlaw":
		return ebv.PowerLaw(ebv.PowerLawConfig{
			NumVertices: p.vertices, NumEdges: p.edges, Eta: p.eta,
			Directed: p.directed, Seed: p.seed,
		})
	case "rmat":
		return ebv.RMAT(ebv.RMATConfig{
			ScaleLog2: p.scaleLog, NumEdges: p.edges, Directed: p.directed, Seed: p.seed,
		})
	case "road":
		return ebv.Road(ebv.RoadConfig{Width: p.width, Height: p.height, Seed: p.seed})
	case "er":
		return ebv.ErdosRenyi(ebv.ErdosRenyiConfig{
			NumVertices: p.vertices, NumEdges: p.edges, Directed: p.directed, Seed: p.seed,
		})
	case "analogue":
		a, err := analogueByName(p.analogue)
		if err != nil {
			return nil, err
		}
		return ebv.TableIGraph(a, p.graphScale, p.seed)
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

func analogueByName(name string) (ebv.Analogue, error) {
	switch strings.ToLower(name) {
	case "usaroad", "road":
		return ebv.USARoad, nil
	case "livejournal", "lj":
		return ebv.LiveJournal, nil
	case "twitter":
		return ebv.Twitter, nil
	case "friendster":
		return ebv.Friendster, nil
	default:
		return 0, fmt.Errorf("unknown analogue %q", name)
	}
}

func describeFile(path string, undirected bool) error {
	g, err := ebv.ReadGraphFile(path, undirected)
	if err != nil {
		return err
	}
	s := ebv.ComputeGraphStats(g)
	fmt.Printf("vertices        %d\n", s.NumVertices)
	fmt.Printf("edges           %d\n", s.NumEdges)
	fmt.Printf("average degree  %.2f\n", s.AverageDegree)
	fmt.Printf("max degree      %d\n", s.MaxDegree)
	fmt.Printf("degree p50/p99  %d / %d\n", s.DegreeP50, s.DegreeP99)
	fmt.Printf("eta (power-law) %.2f\n", s.Eta)
	return nil
}
