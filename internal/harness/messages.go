package harness

import (
	"context"
	"fmt"
	"io"

	"ebv/internal/gen"
)

// This file reproduces Tables IV and V: the total number of communication
// messages and the max/mean per-worker message ratio for the CC algorithm,
// per graph and per partitioner, using the paper's worker counts.

// MessageCell holds one partitioner's message statistics on one graph.
type MessageCell struct {
	Algorithm string
	// TotalMessages counts the rows that crossed the exchange — the
	// paper's platform-independent Table IV metric.
	TotalMessages int64
	// Emitted and Delivered are the program-emitted and inbox-delivered
	// row counts (bsp.Result.MessageCounts). The engine sends what the
	// program emits and delivers every row it sends, so both equal
	// TotalMessages.
	Emitted   int64
	Delivered int64
	// MaxMeanRatio is the Table V communication-balance metric.
	MaxMeanRatio float64
	// Metrics echoes the Table III numbers shown in parentheses in the
	// paper's Tables IV and V.
	Metrics Table3Cell
}

// MessageRow is one graph's row.
type MessageRow struct {
	Graph   string
	Workers int
	Cells   []MessageCell
}

// Cell returns the named algorithm's cell.
func (r MessageRow) Cell(algorithm string) (MessageCell, bool) {
	for _, c := range r.Cells {
		if c.Algorithm == algorithm {
			return c, true
		}
	}
	return MessageCell{}, false
}

// MessagesResult underlies both Table IV and Table V (they are two views
// of the same runs).
type MessagesResult struct {
	Rows []MessageRow
}

// Row returns the named graph's row.
func (r *MessagesResult) Row(name string) (MessageRow, bool) {
	for _, row := range r.Rows {
		if row.Graph == name {
			return row, true
		}
	}
	return MessageRow{}, false
}

// print renders the runs as one table: a column per partitioner, a row
// per graph, each cell formatted by the caller's view of it.
func (r *MessagesResult) print(w io.Writer, title string, cell func(MessageCell) string) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	header := []string{"Graph", "p"}
	if len(r.Rows) > 0 {
		for _, c := range r.Rows[0].Cells {
			header = append(header, c.Algorithm)
		}
	}
	t := newTable(header...)
	for _, row := range r.Rows {
		cells := []string{row.Graph, fmt.Sprintf("%d", row.Workers)}
		for _, c := range row.Cells {
			cells = append(cells, cell(c))
		}
		t.addRow(cells...)
	}
	return t.write(w)
}

// computeMessages runs the CC jobs that Table IV and Table V report on,
// each over the assignment its cell's metrics were measured on.
func computeMessages(ctx context.Context, opt Options) (*MessagesResult, error) {
	res := &MessagesResult{}
	for _, analogue := range gen.Analogues() {
		g, err := Graph(analogue, opt)
		if err != nil {
			return nil, err
		}
		k := PaperWorkerCount(analogue)
		row := MessageRow{Graph: analogue.String(), Workers: k}
		for _, p := range opt.tablePartitioners() {
			metrics, a, err := metricsCell(ctx, g, p, k)
			if err != nil {
				return nil, err
			}
			runs, err := runAssigned(ctx, g, a, p.Name(), AppCC, opt, 1)
			if err != nil {
				return nil, err
			}
			run := runs[0]
			counts := run.MessageCounts()
			row.Cells = append(row.Cells, MessageCell{
				Algorithm:     p.Name(),
				TotalMessages: counts.Wire,
				Emitted:       counts.Emitted,
				Delivered:     counts.Delivered,
				MaxMeanRatio:  run.MaxMeanMessageRatio(),
				Metrics:       metrics,
			})
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table4Result reproduces Table IV: total CC communication messages.
type Table4Result struct{ MessagesResult }

// Table4 runs CC with each partitioner on each graph and counts messages.
func Table4(ctx context.Context, opt Options) (*Table4Result, error) {
	m, err := computeMessages(ctx, opt)
	if err != nil {
		return nil, err
	}
	return &Table4Result{MessagesResult: *m}, nil
}

// Print renders Table IV in the paper's layout (replication factor in
// parentheses).
func (r *Table4Result) Print(w io.Writer) error {
	return r.print(w, "Table IV: total CC communication messages (replication factor)",
		func(c MessageCell) string {
			return fmt.Sprintf("%.2e (%.2f)", float64(c.TotalMessages), c.Metrics.ReplicationFactor)
		})
}

// Table5Result reproduces Table V: max/mean per-worker message ratios.
type Table5Result struct{ MessagesResult }

// Table5 reports the communication balance of the same CC runs.
func Table5(ctx context.Context, opt Options) (*Table5Result, error) {
	m, err := computeMessages(ctx, opt)
	if err != nil {
		return nil, err
	}
	return &Table5Result{MessagesResult: *m}, nil
}

// Print renders Table V in the paper's layout (imbalance factors in
// parentheses).
func (r *Table5Result) Print(w io.Writer) error {
	return r.print(w, "Table V: max/mean CC message ratio (edge/vertex imbalance factors)",
		func(c MessageCell) string {
			return fmt.Sprintf("%.3f (%.2f/%.2f)", c.MaxMeanRatio, c.Metrics.EdgeImbalance, c.Metrics.VertexImbalance)
		})
}
