package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ebv/internal/bsp"
)

// Fig4Result reproduces Figure 4: the per-worker timeline (computation /
// communication / synchronization segments) of CC with 4 workers over the
// LiveJournal analogue, one panel per partitioner.
type Fig4Result struct {
	Workers int
	Panels  []Fig4Panel
}

// Fig4Panel is one partitioner's timeline.
type Fig4Panel struct {
	Algorithm string
	WallTime  time.Duration
	Segments  []bsp.TimelineSegment
	// PerWorker aggregates each worker's comp/comm/sync totals.
	PerWorker []Fig4WorkerTotals
}

// Fig4WorkerTotals is one worker's stage totals.
type Fig4WorkerTotals struct {
	Worker int
	Comp   time.Duration
	Comm   time.Duration
	Sync   time.Duration
}

// Panel returns the named algorithm's panel.
func (r *Fig4Result) Panel(algorithm string) (Fig4Panel, bool) {
	for _, p := range r.Panels {
		if p.Algorithm == algorithm {
			return p, true
		}
	}
	return Fig4Panel{}, false
}

// Fig4 runs CC with 4 workers per partitioner and captures the timelines.
func Fig4(ctx context.Context, opt Options) (*Fig4Result, error) {
	g, err := Graph(LiveJournalGraph, opt)
	if err != nil {
		return nil, err
	}
	const workers = 4
	res := &Fig4Result{Workers: workers}
	for _, p := range PaperPartitioners() {
		run, err := runBSP(ctx, g, p, workers, AppCC, opt)
		if err != nil {
			return nil, err
		}
		panel := Fig4Panel{
			Algorithm: p.Name(),
			WallTime:  run.WallTime,
			Segments:  run.Timeline(),
		}
		for wID := range run.Workers {
			ws := &run.Workers[wID]
			panel.PerWorker = append(panel.PerWorker, Fig4WorkerTotals{
				Worker: wID,
				Comp:   ws.TotalComp(),
				Comm:   ws.TotalComm(),
				Sync:   ws.TotalSync(),
			})
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// Print renders each panel as a proportional ASCII bar per worker
// (computation '#', communication '=', synchronization '.').
func (r *Fig4Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 4: per-worker breakdown of CC with %d workers over LiveJournal analogue\n",
		r.Workers); err != nil {
		return err
	}
	const barWidth = 60
	for _, panel := range r.Panels {
		if _, err := fmt.Fprintf(w, "\n%s (wall %v)\n", panel.Algorithm,
			panel.WallTime.Round(time.Microsecond)); err != nil {
			return err
		}
		// Scale bars to the slowest worker.
		var maxTotal time.Duration
		for _, wt := range panel.PerWorker {
			if total := wt.Comp + wt.Comm + wt.Sync; total > maxTotal {
				maxTotal = total
			}
		}
		for _, wt := range panel.PerWorker {
			bar := ""
			if maxTotal > 0 {
				comp := int(float64(wt.Comp) / float64(maxTotal) * barWidth)
				comm := int(float64(wt.Comm) / float64(maxTotal) * barWidth)
				sync := int(float64(wt.Sync) / float64(maxTotal) * barWidth)
				bar = strings.Repeat("#", comp) + strings.Repeat("=", comm) + strings.Repeat(".", sync)
			}
			if _, err := fmt.Fprintf(w, "  worker %d |%-*s| comp=%v comm=%v sync=%v\n",
				wt.Worker, barWidth, bar,
				wt.Comp.Round(time.Microsecond),
				wt.Comm.Round(time.Microsecond),
				wt.Sync.Round(time.Microsecond)); err != nil {
				return err
			}
		}
	}
	return nil
}
