package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"ebv/internal/gen"
)

// This file reproduces the Figure 2 and Figure 3 execution-time sweeps:
// CC/PR/SSSP over the power-law analogues (Fig. 2) and CC/SSSP over the
// road analogue (Fig. 3), as a function of the number of workers, for the
// six partitioners plus the vertex-centric comparator engine ("VC",
// standing in for the Galois/Blogel systems — DESIGN.md §2).

// SweepPoint is one (series, workers) measurement.
type SweepPoint struct {
	Series   string // partitioner name or "VC"
	Workers  int
	Time     time.Duration
	Messages int64
}

// SweepSeries groups a series' points in worker order.
type SweepSeries struct {
	Series string
	Points []SweepPoint
}

// SweepPanel is one (app, graph) panel of the figure.
type SweepPanel struct {
	App    App
	Graph  string
	Series []SweepSeries
}

// SeriesByName returns the named series.
func (p SweepPanel) SeriesByName(name string) (SweepSeries, bool) {
	for _, s := range p.Series {
		if s.Series == name {
			return s, true
		}
	}
	return SweepSeries{}, false
}

// SweepResult is a set of panels (one figure).
type SweepResult struct {
	Title  string
	Panels []SweepPanel
}

// Panel returns the (app, graph) panel.
func (r *SweepResult) Panel(app App, graphName string) (SweepPanel, bool) {
	for _, p := range r.Panels {
		if p.App == app && p.Graph == graphName {
			return p, true
		}
	}
	return SweepPanel{}, false
}

func (o Options) sweepWorkers() []int {
	if len(o.Workers) > 0 {
		return o.Workers
	}
	return []int{4, 8, 12, 16}
}

// sweep runs every partitioner (plus the VC comparator) for every worker
// count on one (app, graph) panel.
func sweep(ctx context.Context, app App, analogue gen.Analogue, opt Options) (SweepPanel, error) {
	g, err := Graph(analogue, opt)
	if err != nil {
		return SweepPanel{}, err
	}
	panel := SweepPanel{App: app, Graph: analogue.String()}
	for _, p := range PaperPartitioners() {
		series := SweepSeries{Series: p.Name()}
		for _, k := range opt.sweepWorkers() {
			run, err := runBSP(ctx, g, p, k, app, opt)
			if err != nil {
				return SweepPanel{}, err
			}
			series.Points = append(series.Points, SweepPoint{
				Series:   p.Name(),
				Workers:  k,
				Time:     run.WallTime,
				Messages: run.TotalMessages(),
			})
		}
		panel.Series = append(panel.Series, series)
	}
	vc := SweepSeries{Series: "VC"}
	for _, k := range opt.sweepWorkers() {
		run, err := runVC(ctx, g, k, app, opt)
		if err != nil {
			return SweepPanel{}, err
		}
		vc.Points = append(vc.Points, SweepPoint{
			Series:   "VC",
			Workers:  k,
			Time:     run.WallTime,
			Messages: run.TotalMessages(),
		})
	}
	panel.Series = append(panel.Series, vc)
	return panel, nil
}

// Fig2 reproduces Figure 2: CC, PR and SSSP over the three power-law
// analogues.
func Fig2(ctx context.Context, opt Options) (*SweepResult, error) {
	res := &SweepResult{Title: "Figure 2: execution time on power-law graphs"}
	for _, app := range Apps() {
		for _, analogue := range PowerLawAnalogues() {
			panel, err := sweep(ctx, app, analogue, opt)
			if err != nil {
				return nil, err
			}
			res.Panels = append(res.Panels, panel)
		}
	}
	return res, nil
}

// Fig3 reproduces Figure 3: CC and SSSP over the USARoad analogue.
func Fig3(ctx context.Context, opt Options) (*SweepResult, error) {
	res := &SweepResult{Title: "Figure 3: execution time on the road graph"}
	for _, app := range []App{AppCC, AppSSSP} {
		panel, err := sweep(ctx, app, USARoadGraph, opt)
		if err != nil {
			return nil, err
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// Print renders each panel as a table: one row per series, one column per
// worker count.
func (r *SweepResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, r.Title); err != nil {
		return err
	}
	for _, panel := range r.Panels {
		if _, err := fmt.Fprintf(w, "\n%s - %s (execution time | messages)\n",
			panel.App, panel.Graph); err != nil {
			return err
		}
		header := []string{"Series"}
		if len(panel.Series) > 0 {
			for _, pt := range panel.Series[0].Points {
				header = append(header, fmt.Sprintf("p=%d", pt.Workers))
			}
		}
		t := newTable(header...)
		for _, s := range panel.Series {
			cells := []string{s.Series}
			for _, pt := range s.Points {
				cells = append(cells, fmt.Sprintf("%v|%.1e",
					pt.Time.Round(time.Microsecond), float64(pt.Messages)))
			}
			t.addRow(cells...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}
