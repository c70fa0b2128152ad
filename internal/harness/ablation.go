package harness

import (
	"context"
	"fmt"
	"io"

	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Ablation experiments for the design choices DESIGN.md §5 calls out. They
// go beyond the paper's own evaluation: the paper reports only the
// sort/unsort comparison (Figure 5); these add the descending order, the
// α/β sensitivity, and the streaming variants.

// AblationRow is one configuration's partition quality.
type AblationRow struct {
	Config            string
	Graph             string
	Subgraphs         int
	EdgeImbalance     float64
	VertexImbalance   float64
	ReplicationFactor float64
}

// AblationResult is a list of configuration rows.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Row returns the first row with the given config name on the given graph.
func (r *AblationResult) Row(config, graphName string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Config == config && row.Graph == graphName {
			return row, true
		}
	}
	return AblationRow{}, false
}

// Print renders the ablation table.
func (r *AblationResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, r.Title); err != nil {
		return err
	}
	t := newTable("Config", "Graph", "p", "EIF", "VIF", "RF")
	for _, row := range r.Rows {
		t.addRowf("%s\t%s\t%d\t%.3f\t%.3f\t%.3f",
			row.Config, row.Graph, row.Subgraphs,
			row.EdgeImbalance, row.VertexImbalance, row.ReplicationFactor)
	}
	return t.write(w)
}

// add partitions g — the analogue's graph — with p into the paper's
// subgraph count for it and appends the quality row labelled config.
func (r *AblationResult) add(ctx context.Context, config string, analogue gen.Analogue, g *graph.Graph, p partition.Partitioner) error {
	k := PaperWorkerCount(analogue)
	a, err := p.Partition(ctx, g, k)
	if err != nil {
		return err
	}
	m, err := partition.ComputeMetrics(g, a)
	if err != nil {
		return err
	}
	r.Rows = append(r.Rows, AblationRow{
		Config: config, Graph: analogue.String(), Subgraphs: k,
		EdgeImbalance: m.EdgeImbalance, VertexImbalance: m.VertexImbalance,
		ReplicationFactor: m.ReplicationFactor,
	})
	return nil
}

// AblationSortOrder compares EBV's three edge-processing orders on the
// power-law analogues (extends §V-D with the descending order).
func AblationSortOrder(ctx context.Context, opt Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: EBV edge-processing order"}
	variants := []struct {
		name  string
		order core.Order
	}{
		{"EBV-sort", core.OrderSorted},
		{"EBV-unsort", core.OrderInput},
		{"EBV-sort-desc", core.OrderSortedDesc},
	}
	for _, analogue := range PowerLawAnalogues() {
		g, err := Graph(analogue, opt)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			p := core.New(core.WithOrder(v.order))
			if err := res.add(ctx, v.name, analogue, g, p); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// AblationAlphaBeta sweeps the evaluation-function weights on the Twitter
// analogue (the most skewed graph, where balance pressure matters most).
func AblationAlphaBeta(ctx context.Context, opt Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: EBV alpha/beta sensitivity (Twitter analogue)"}
	g, err := Graph(TwitterGraph, opt)
	if err != nil {
		return nil, err
	}
	for _, ab := range []struct{ alpha, beta float64 }{
		{0.1, 0.1}, {0.5, 0.5}, {1, 1}, {2, 2}, {10, 10}, {1, 10}, {10, 1},
	} {
		p := core.New(core.WithAlpha(ab.alpha), core.WithBeta(ab.beta))
		config := fmt.Sprintf("a=%g b=%g", ab.alpha, ab.beta)
		if err := res.add(ctx, config, TwitterGraph, g, p); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AblationStreaming compares offline EBV against the one-pass streaming
// variants and the parallel variant (the §VII future-work directions).
func AblationStreaming(ctx context.Context, opt Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: offline vs streaming vs parallel EBV"}
	configs := []partition.Partitioner{
		core.New(),
		core.New(core.WithOrder(core.OrderInput)),
		&core.PartitionStream{},
		&core.PartitionStream{Window: 64},
		&core.ParallelEBV{Workers: 4},
		&partition.HDRF{},
	}
	for _, analogue := range PowerLawAnalogues() {
		g, err := Graph(analogue, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range configs {
			if err := res.add(ctx, p.Name(), analogue, g, p); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
