package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"ebv/internal/graph"
	"ebv/internal/serve"
)

// K is the subgraph/worker count of every workload (the paper's k = 8).
const K = 8

// options are the settings of one run.
type options struct {
	seed    uint64
	seconds float64 // wall budget of the timed cycle phase
	scale   float64 // input size multiplier (1 = the pinned sizes)
	trace   bool
	dir     string    // scratch directory for generated inputs
	outDir  string    // where trace-<workload>.json goes
	log     io.Writer // human-readable progress and tables
}

// workload is one pinned scenario: how its inputs are generated, how the
// system is brought from those files to "ready for the first job", and
// why it is in the set.
type workload struct {
	name string
	why  string
	// opensPerRound is how many setup_s samples each of a run's rounds
	// takes; the last open of a round serves its cycles.
	opensPerRound int
	// inputs generates the workload's edge lists under dir.
	inputs func(dir string, seed uint64, scale float64) (*inputs, error)
	// open is the timed set-up: from the files to ready for the first job.
	open func(ctx context.Context, in *inputs, tr *tracer, parent int) (system, error)
	// tcp says the workload's exchange crosses loopback sockets, so the
	// ledger's bsp.* rows are taken from the TCP mesh run.
	tcp bool
}

// inputs is a workload's generated input set.
type inputs struct {
	graphs []*graphInput // graphs[0] is the largest: the ledger's graph
	// apps are the programs of one cycle on graphs[0], and dense checks
	// their whole-matrix results (also the layer ledger's).
	apps  []appSpec
	dense *denseChecker
	serve *serveInputsData // serve-mixed only
}

// system is one opened instance of the system under test.
type system interface {
	// cycle runs the workload's fixed, ordered job list once: the timed
	// region. It only collects outputs; checking them is off the clock.
	cycle(ctx context.Context, tr *tracer, parent int) []jobOut
	// check compares a cycle's outputs with the sequential oracles (full)
	// or with the checksums the full check recorded.
	check(jobs []jobOut, full bool) (attempted, failed int)
	// finish runs end-of-round checks that need the system still open.
	finish(ctx context.Context) (attempted, failed int)
	// replicationFactor is the partition quality the caller can see.
	replicationFactor() float64
	close() error
}

// jobOut is one operation's outcome as the caller saw it.
type jobOut struct {
	key     string // identifies the job within the cycle (app, graph)
	err     error
	values  *graph.ValueMatrix // dense result rows, when the path returns them
	covered []bool
	sample  []serve.VertexValue // requested vertices' rows, on the HTTP path
}

// runStats is everything one run measured.
type runStats struct {
	setup, cycle             []float64 // untraced samples, seconds
	tracedSetup, tracedCycle []float64
	rf                       float64
	attempted, failed        int
}

// The sample plan of a run: the cycle phase's wall budget is split over
// rounds rounds; a round opens the system opensPerRound times and then
// runs at least minCycles timed cycles, however long one takes. A run so
// has rounds × opensPerRound (>= 10) setup_s samples and at least
// rounds × minCycles (= 15) cycle_s samples.
const (
	rounds    = 5
	minCycles = 3
)

// samplePlan is the plan as a result file records it; --check refuses to
// compare runs measured on different plans.
type samplePlan struct {
	Rounds        int `json:"rounds"`
	OpensPerRound int `json:"opens_per_round"`
	MinCycles     int `json:"min_cycles_per_round"`
}

func (w *workload) plan() samplePlan {
	return samplePlan{Rounds: rounds, OpensPerRound: w.opensPerRound, MinCycles: minCycles}
}

// runRounds is the measurement loop shared by every workload. Set-up and
// cycle repetitions alternate (opens, cycles, close, opens, …) so slow
// drift of the machine lands on both metrics alike; timed regions never
// overlap; the heap is collected before each one so one repetition's
// garbage is not charged to the next. Every round takes opensPerRound
// set-up samples (the extra opens are closed at once), so one noisy
// moment of the machine cannot carry the run's median. In a traced run
// every second open and every second cycle records spans; the untraced
// ones beside them are the reference the tracing overhead is measured
// against.
func runRounds(ctx context.Context, w *workload, in *inputs, opt options, tr *tracer) (*runStats, error) {
	st := &runStats{}
	// nth returns the tracer of the n-th repetition: tracing off, or on
	// for every second one of a traced run.
	nth := func(n int) *tracer {
		if n%2 == 1 {
			return tr
		}
		return nil
	}
	opens, cycles := 0, 0
	perRound := time.Duration(opt.seconds / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		var sys system
		var took time.Duration
		for o := 0; o < w.opensPerRound; o++ {
			if sys != nil {
				if err := sys.close(); err != nil {
					return nil, fmt.Errorf("%s: close: %w", w.name, err)
				}
			}
			rtr := nth(opens)
			opens++
			runtime.GC()
			root := rtr.begin(-1, "benchmark", "setup", 0)
			t0 := time.Now()
			var err error
			sys, err = w.open(ctx, in, rtr, root)
			took = time.Since(t0)
			rtr.end(root)
			if err != nil {
				return nil, fmt.Errorf("%s: open: %w", w.name, err)
			}
			if rtr == nil {
				st.setup = append(st.setup, took.Seconds())
			} else {
				st.tracedSetup = append(st.tracedSetup, took.Seconds())
			}
		}
		st.rf = sys.replicationFactor()

		// One warm-up cycle per round, off the clock, checked in full
		// against the oracles.
		a, f := sys.check(sys.cycle(ctx, nil, -1), true)
		st.attempted, st.failed = st.attempted+a, st.failed+f

		deadline := time.Now().Add(perRound)
		for i := 0; i < minCycles || time.Now().Before(deadline); i++ {
			rtr := nth(cycles)
			cycles++
			runtime.GC()
			root := rtr.begin(-1, "benchmark", "cycle", 0)
			t0 := time.Now()
			c := sys.cycle(ctx, rtr, root)
			took := time.Since(t0)
			rtr.end(root)
			if rtr == nil {
				st.cycle = append(st.cycle, took.Seconds())
			} else {
				st.tracedCycle = append(st.tracedCycle, took.Seconds())
			}
			a, f := sys.check(c, false)
			st.attempted, st.failed = st.attempted+a, st.failed+f
		}
		a, f = sys.finish(ctx)
		st.attempted, st.failed = st.attempted+a, st.failed+f
		if err := sys.close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", w.name, err)
		}
		fmt.Fprintf(opt.log, "  round %d/%d: setup %.3fs, %d cycles so far, ops %d failed %d\n",
			r+1, rounds, took.Seconds(), cycles, st.attempted, st.failed)
	}
	return st, nil
}

// oracle holds the expected result of one job and how to compare it.
type oracle struct {
	want  []float64 // dense, width columns per vertex
	width int
	tol   float64 // 0 compares exactly
}

// matches reports whether row equals the oracle's row for vertex v.
func (o *oracle) matches(v int, row []float64) bool {
	if len(row) != o.width {
		return false
	}
	for j, got := range row {
		want := o.want[v*o.width+j]
		if o.tol == 0 {
			if got != want {
				return false
			}
		} else if !(math.Abs(got-want) <= o.tol) {
			return false
		}
	}
	return true
}

// matchesAll checks every covered vertex of a dense result. A vertex
// with an edge must be covered.
func (o *oracle) matchesAll(g *graph.Graph, values *graph.ValueMatrix, covered []bool) bool {
	if values == nil || values.Width != o.width || len(covered) < g.NumVertices() {
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !covered[v] {
			if g.Degree(graph.VertexID(v)) > 0 {
				return false
			}
			continue
		}
		if !o.matches(v, values.Row(v)) {
			return false
		}
	}
	return true
}

// checksum folds a dense result's covered rows into 64 bits; it must be
// identical across all cycles of a run.
func checksum(values *graph.ValueMatrix, covered []bool) uint64 {
	h := fnv.New64a()
	for v, c := range covered {
		if c {
			hashRow(h, values.Row(v))
		}
	}
	return h.Sum64()
}

// sampleChecksum is checksum for the HTTP path's requested rows.
func sampleChecksum(sample []serve.VertexValue) uint64 {
	h := fnv.New64a()
	for _, s := range sample {
		hashRow(h, s.Value)
	}
	return h.Sum64()
}

func hashRow(h hash.Hash64, row []float64) {
	var buf [8]byte
	for _, x := range row {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// scratchDir creates the run's private input directory.
func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "inputs-")
}
