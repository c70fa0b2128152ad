package harness

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ebv/internal/bsp"
	"ebv/internal/gen"
)

// This file reproduces Tables IV and V: the total number of communication
// messages and the max/mean per-worker message ratio of one CC broadcast,
// per graph and per partitioner, using the paper's worker counts. The
// counts are the replica-pair model: worker p sends L_p rows, one per
// replica peer of each of its replicated vertices, so L_p is the length of
// its subgraph's peer list and the total is Σ R(v)(R(v) − 1). Engine CC
// instead sends worker 0 one row per link vertex (bsp.Links) and gets back
// the relabelled labels, which no longer measures the paper's per-replica
// traffic.

// MessageCell holds one partitioner's message statistics on one graph.
type MessageCell struct {
	Algorithm string
	// TotalMessages is Σ L_p — the paper's platform-independent Table IV
	// metric.
	TotalMessages int64
	// Emitted and Delivered equal TotalMessages: a broadcast delivers
	// every row it emits. They keep the CSV's columns.
	Emitted   int64
	Delivered int64
	// MaxMeanRatio is the Table V communication-balance metric,
	// max_p L_p / mean_p L_p (1 when no row flows).
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
// of the same counts).
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

// messageRuns memoizes computeMessages within a process, as Graph memoizes
// graphs: Tables III, IV and V read the same cells.
var messageRuns = struct {
	mu sync.Mutex
	m  map[messagesKey]*MessagesResult
}{m: make(map[messagesKey]*MessagesResult)}

type messagesKey struct {
	scale    float64
	seed     uint64
	extended bool
}

// computeMessages partitions every cell of Tables III–V once per process
// and counts the replica-pair rows of the subgraphs built over the
// assignment the cell's metrics were measured on.
func computeMessages(ctx context.Context, opt Options) (*MessagesResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := messagesKey{opt.scale(), opt.Seed, opt.Extended}
	messageRuns.mu.Lock()
	defer messageRuns.mu.Unlock()
	if res, ok := messageRuns.m[key]; ok {
		return res, nil
	}
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
			subs, err := bsp.BuildSubgraphs(g, a)
			if err != nil {
				return nil, fmt.Errorf("harness: %s subgraphs: %w", p.Name(), err)
			}
			var total, most int64
			for _, sub := range subs {
				sent := int64(len(sub.Peers))
				total, most = total+sent, max(most, sent)
			}
			ratio := 1.0
			if total > 0 {
				ratio = float64(most) / (float64(total) / float64(k))
			}
			row.Cells = append(row.Cells, MessageCell{
				Algorithm:     p.Name(),
				TotalMessages: total,
				Emitted:       total,
				Delivered:     total,
				MaxMeanRatio:  ratio,
				Metrics:       metrics,
			})
		}
		res.Rows = append(res.Rows, row)
	}
	messageRuns.m[key] = res
	return res, nil
}

// Table4Result reproduces Table IV: total CC communication messages.
type Table4Result struct{ MessagesResult }

// Table4 counts one CC broadcast's rows for each partitioner on each graph.
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

// Table5 reports the communication balance of the same broadcasts.
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
