package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"
)

// Table2Row is one partitioner's breakdown of CC with 4 workers over the
// LiveJournal analogue (§V-B, Table II). With Options.Repeat > 1 the
// durations are means over the repeats and ExecutionStddev reports the
// spread of the wall-clock time.
type Table2Row struct {
	Algorithm       string
	Comp            time.Duration // average computation time across workers
	Comm            time.Duration // average communication time across workers
	DeltaC          time.Duration // accumulated synchronization spread
	Execution       time.Duration // wall-clock execution time
	ExecutionStddev time.Duration
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Workers int
	Rows    []Table2Row
}

// Row returns the named algorithm's row.
func (r *Table2Result) Row(algorithm string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Algorithm == algorithm {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Table2 runs CC with 4 workers over the LiveJournal analogue for every
// partitioner and reports the comp/comm/ΔC/execution breakdown.
func Table2(ctx context.Context, opt Options) (*Table2Result, error) {
	g, err := Graph(LiveJournalGraph, opt)
	if err != nil {
		return nil, err
	}
	const workers = 4
	repeat := opt.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	res := &Table2Result{Workers: workers}
	for _, p := range opt.tablePartitioners() {
		// One deployment per cell: the partition and subgraph build are
		// paid once and the repeats run as jobs over it, so the repeated
		// timings measure execution in the amortized serving regime.
		runs, err := runBSPRepeats(ctx, g, p, workers, AppCC, opt, repeat)
		if err != nil {
			return nil, err
		}
		var comp, comm, deltaC, exec time.Duration
		execSamples := make([]time.Duration, 0, repeat)
		for _, run := range runs {
			comp += run.AvgComp()
			comm += run.AvgComm()
			deltaC += run.DeltaC()
			exec += run.WallTime
			execSamples = append(execSamples, run.WallTime)
		}
		n := time.Duration(repeat)
		row := Table2Row{
			Algorithm: p.Name(),
			Comp:      comp / n,
			Comm:      comm / n,
			DeltaC:    deltaC / n,
			Execution: exec / n,
		}
		if repeat > 1 {
			mean := float64(exec) / float64(repeat)
			var variance float64
			for _, s := range execSamples {
				d := float64(s) - mean
				variance += d * d
			}
			row.ExecutionStddev = time.Duration(math.Sqrt(variance / float64(repeat-1)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the table in the paper's layout.
func (r *Table2Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Table II: breakdown of CC with %d workers over LiveJournal analogue\n", r.Workers); err != nil {
		return err
	}
	t := newTable("Algorithm", "comp", "comm", "dC", "Execution")
	for _, row := range r.Rows {
		execution := row.Execution.Round(time.Microsecond).String()
		if row.ExecutionStddev > 0 {
			execution += " ± " + row.ExecutionStddev.Round(time.Microsecond).String()
		}
		t.addRowf("%s\t%v\t%v\t%v\t%s",
			row.Algorithm,
			row.Comp.Round(time.Microsecond),
			row.Comm.Round(time.Microsecond),
			row.DeltaC.Round(time.Microsecond),
			execution)
	}
	return t.write(w)
}
