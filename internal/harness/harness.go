// Package harness regenerates every table and figure of the paper's
// evaluation section (§V) over the scaled synthetic analogues of the four
// Table I graphs. Each experiment returns a structured result (so tests and
// benches can assert the paper's qualitative shape) and knows how to print
// itself in the paper's layout.
//
// The per-experiment index lives in DESIGN.md §4; EXPERIMENTS.md records
// paper-vs-measured numbers.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/ginger"
	"ebv/internal/graph"
	"ebv/internal/metis"
	"ebv/internal/ne"
	"ebv/internal/partition"
)

// Options configures every experiment. The zero value selects the
// defaults.
type Options struct {
	// Scale multiplies the baseline graph sizes (DESIGN.md §2). Tests use
	// ~0.1; the bench harness defaults to 1.
	Scale float64
	// Seed drives all generators.
	Seed uint64
	// Workers overrides the per-graph worker counts (nil = paper's
	// 12/12/32/32 for tables, sweep defaults for figures).
	Workers []int
	// PageRankIters bounds PR work (default 10).
	PageRankIters int
	// Extended adds the beyond-the-paper partitioners (HDRF, Hybrid,
	// Fennel, EBV-stream, EBV-parallel) as extra columns of Tables III-V.
	Extended bool
	// Repeat re-runs timing experiments (Table II) this many times and
	// reports mean ± stddev (default 1).
	Repeat int
	// Parallelism bounds the CPUs used by the data-plane passes between
	// partition and run (subgraph construction); <= 0 selects GOMAXPROCS.
	Parallelism int
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) prIters() int {
	if o.PageRankIters <= 0 {
		return 10
	}
	return o.PageRankIters
}

// PaperPartitioners returns the six partition algorithms of the paper's
// evaluation, in the paper's column order.
func PaperPartitioners() []partition.Partitioner {
	return []partition.Partitioner{
		core.New(),
		&ginger.Ginger{},
		&partition.DBH{},
		&partition.CVC{},
		&ne.NE{},
		&metis.Metis{},
	}
}

// ExtendedPartitioners returns the beyond-the-paper algorithms added as
// extra table columns under Options.Extended.
func ExtendedPartitioners() []partition.Partitioner {
	return []partition.Partitioner{
		&partition.HDRF{},
		&partition.Hybrid{},
		&partition.Fennel{},
		&core.PartitionStream{},
		&core.ParallelEBV{},
	}
}

// tablePartitioners resolves the partitioner set for the table experiments.
func (o Options) tablePartitioners() []partition.Partitioner {
	ps := PaperPartitioners()
	if o.Extended {
		ps = append(ps, ExtendedPartitioners()...)
	}
	return ps
}

// PartitionerByName resolves any algorithm name used in the paper,
// including the EBV sort variants.
func PartitionerByName(name string) (partition.Partitioner, error) {
	switch name {
	case "EBV":
		return core.New(), nil
	case "EBV-unsort":
		return core.New(core.WithOrder(core.OrderInput)), nil
	case "EBV-sort-desc":
		return core.New(core.WithOrder(core.OrderSortedDesc)), nil
	case "Ginger":
		return &ginger.Ginger{}, nil
	case "NE":
		return &ne.NE{}, nil
	case "METIS":
		return &metis.Metis{}, nil
	case "EBV-stream":
		return &core.PartitionStream{}, nil
	case "EBV-stream-window":
		return &core.PartitionStream{Window: 64}, nil
	case "EBV-parallel":
		return &core.ParallelEBV{}, nil
	default:
		return partition.ByName(name)
	}
}

// PaperWorkerCount returns the subgraph count Table III uses for each graph
// (12/12/32/32), scaled down for very small test graphs.
func PaperWorkerCount(a gen.Analogue) int {
	switch a {
	case USARoadGraph, LiveJournalGraph:
		return 12
	default:
		return 32
	}
}

// Graph analogue aliases re-exported for harness callers.
const (
	USARoadGraph     = gen.USARoad
	LiveJournalGraph = gen.LiveJournal
	TwitterGraph     = gen.Twitter
	FriendsterGraph  = gen.Friendster
)

// graphCache memoizes generated graphs within a process: the figure sweeps
// reuse the same analogue many times and generation dominates otherwise.
var graphCache = struct {
	mu sync.Mutex
	m  map[graphKey]*graph.Graph
}{m: make(map[graphKey]*graph.Graph)}

type graphKey struct {
	analogue gen.Analogue
	scale    float64
	seed     uint64
}

// Graph returns the scaled analogue of a Table I graph, cached per process.
func Graph(a gen.Analogue, opt Options) (*graph.Graph, error) {
	key := graphKey{analogue: a, scale: opt.scale(), seed: opt.Seed}
	graphCache.mu.Lock()
	defer graphCache.mu.Unlock()
	if g, ok := graphCache.m[key]; ok {
		return g, nil
	}
	g, err := gen.TableIGraph(a, key.scale, key.seed)
	if err != nil {
		return nil, fmt.Errorf("harness: generate %s: %w", a, err)
	}
	graphCache.m[key] = g
	return g, nil
}

// PowerLawAnalogues returns the three power-law graphs of Figures 2 and 5
// in the paper's order.
func PowerLawAnalogues() []gen.Analogue {
	return []gen.Analogue{LiveJournalGraph, TwitterGraph, FriendsterGraph}
}

// result is what every experiment returns: it prints itself in the paper's
// layout and dumps itself as tidy CSV.
type result interface {
	Print(w io.Writer) error
	WriteCSV(w io.Writer) error
}

type experimentFunc func(ctx context.Context, opt Options) (result, error)

// exp adapts a typed experiment constructor to the registry's signature.
func exp[R result](f func(context.Context, Options) (R, error)) experimentFunc {
	return func(ctx context.Context, opt Options) (result, error) { return f(ctx, opt) }
}

// experiments is the one registry behind Run, RunCSV and ExperimentNames
// (cmd/ebv-bench's -exp flag), in the paper's order.
var experiments = []struct {
	name string
	run  experimentFunc
}{
	{"table1", exp(Table1)},
	{"table2", exp(Table2)},
	{"table3", exp(Table3)},
	{"table4", exp(Table4)},
	{"table5", exp(Table5)},
	{"fig2", exp(Fig2)},
	{"fig3", exp(Fig3)},
	{"fig4", exp(Fig4)},
	{"fig5", exp(Fig5)},
	{"ablation-sort", exp(AblationSortOrder)},
	{"ablation-alphabeta", exp(AblationAlphaBeta)},
	{"ablation-streaming", exp(AblationStreaming)},
}

// ExperimentNames lists all runnable experiments.
func ExperimentNames() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// runExperiment looks name up in the registry and runs it under ctx, which
// is threaded through every partition cell and BSP run, so canceling it
// aborts the experiment promptly with ctx.Err().
func runExperiment(ctx context.Context, name string, opt Options) (result, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.run(ctx, opt)
		}
	}
	known := ExperimentNames()
	sort.Strings(known)
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, known)
}

// Run executes the named experiment and prints it to w.
func Run(ctx context.Context, name string, opt Options, w io.Writer) error {
	r, err := runExperiment(ctx, name, opt)
	if err != nil {
		return err
	}
	return r.Print(w)
}

// RunCSV executes the named experiment and writes its CSV form to w.
func RunCSV(ctx context.Context, name string, opt Options, w io.Writer) error {
	r, err := runExperiment(ctx, name, opt)
	if err != nil {
		return err
	}
	return r.WriteCSV(w)
}
