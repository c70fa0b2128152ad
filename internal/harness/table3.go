package harness

import (
	"context"
	"fmt"
	"io"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/metis"
	"ebv/internal/partition"
)

// Table3Cell holds one partitioner's metrics on one graph.
type Table3Cell struct {
	Algorithm         string
	EdgeImbalance     float64
	VertexImbalance   float64
	ReplicationFactor float64
}

// Table3Row holds one graph's row: η plus one cell per algorithm.
type Table3Row struct {
	Graph   string
	Eta     float64
	Workers int
	Cells   []Table3Cell
}

// Cell returns the named algorithm's cell.
func (r Table3Row) Cell(algorithm string) (Table3Cell, bool) {
	for _, c := range r.Cells {
		if c.Algorithm == algorithm {
			return c, true
		}
	}
	return Table3Cell{}, false
}

// Table3Result reproduces Table III: edge/vertex imbalance factors and
// replication factor of the six partitioners on the four graphs.
type Table3Result struct {
	Rows []Table3Row
}

// Row returns the named graph's row.
func (r *Table3Result) Row(name string) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.Graph == name {
			return row, true
		}
	}
	return Table3Row{}, false
}

// Table3 partitions the four graphs with the six algorithms using the
// paper's subgraph counts (12/12/32/32) and reports the §III-C metrics.
// METIS — the only edge-cut algorithm — is measured under the paper's
// edge-cut metric definitions (see internal/metis.ComputeEdgeCutMetrics).
func Table3(ctx context.Context, opt Options) (*Table3Result, error) {
	res := &Table3Result{}
	for _, analogue := range gen.Analogues() {
		g, err := Graph(analogue, opt)
		if err != nil {
			return nil, err
		}
		k := PaperWorkerCount(analogue)
		stats := graph.ComputeStats(g)
		row := Table3Row{Graph: analogue.String(), Eta: stats.Eta, Workers: k}
		for _, p := range opt.tablePartitioners() {
			cell, _, err := metricsCell(ctx, g, p, k)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, cell)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// metricsCell partitions g with p into k parts and returns the Table III
// metrics together with the assignment they measure; for METIS that is
// its vertex partition with each edge placed with its source's owner.
func metricsCell(ctx context.Context, g *graph.Graph, p partition.Partitioner, k int) (Table3Cell, *partition.Assignment, error) {
	if err := ctx.Err(); err != nil {
		return Table3Cell{}, nil, err
	}
	if m, ok := p.(*metis.Metis); ok {
		owners, err := m.VertexPartition(ctx, g, k)
		if err != nil {
			return Table3Cell{}, nil, fmt.Errorf("harness: METIS ownership: %w", err)
		}
		ec, err := metis.ComputeEdgeCutMetrics(g, owners, k)
		if err != nil {
			return Table3Cell{}, nil, err
		}
		return Table3Cell{
			Algorithm:         p.Name(),
			EdgeImbalance:     ec.EdgeImbalance,
			VertexImbalance:   ec.VertexImbalance,
			ReplicationFactor: ec.ReplicationFactor,
		}, metis.PlaceEdges(g, owners, k), nil
	}
	a, err := p.Partition(ctx, g, k)
	if err != nil {
		return Table3Cell{}, nil, fmt.Errorf("harness: %s partition: %w", p.Name(), err)
	}
	m, err := partition.ComputeMetrics(g, a)
	if err != nil {
		return Table3Cell{}, nil, err
	}
	return Table3Cell{
		Algorithm:         p.Name(),
		EdgeImbalance:     m.EdgeImbalance,
		VertexImbalance:   m.VertexImbalance,
		ReplicationFactor: m.ReplicationFactor,
	}, a, nil
}

// Print renders the table in the paper's layout.
func (r *Table3Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"Table III: partitioning metrics (edge imbalance / vertex imbalance | replication factor)"); err != nil {
		return err
	}
	header := []string{"Graph", "eta", "p"}
	if len(r.Rows) > 0 {
		for _, c := range r.Rows[0].Cells {
			header = append(header, c.Algorithm+" EIF/VIF", c.Algorithm+" RF")
		}
	}
	t := newTable(header...)
	for _, row := range r.Rows {
		cells := []string{row.Graph, fmt.Sprintf("%.2f", row.Eta), fmt.Sprintf("%d", row.Workers)}
		for _, c := range row.Cells {
			cells = append(cells,
				fmt.Sprintf("%.2f/%.2f", c.EdgeImbalance, c.VertexImbalance),
				fmt.Sprintf("%.2f", c.ReplicationFactor))
		}
		t.addRow(cells...)
	}
	return t.write(w)
}
