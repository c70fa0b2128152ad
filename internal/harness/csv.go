package harness

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV exporters: every experiment result can be dumped as tidy (long-form)
// CSV for external plotting. Columns are stable and documented per method.

// writeCSV writes header, then whatever rows body emits, and flushes. A
// write error is sticky in the csv.Writer's buffer, so emit does not
// return it: cw.Error after the flush reports the first one.
func writeCSV(w io.Writer, header []string, body func(emit func(fields ...string))) error {
	cw := csv.NewWriter(w)
	emit := func(fields ...string) { _ = cw.Write(fields) }
	emit(header...)
	body(emit)
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

func formatInt(i int64) string { return strconv.FormatInt(i, 10) }

// WriteCSV writes `graph,type,vertices,edges,avg_degree,eta` rows.
func (r *Table1Result) WriteCSV(w io.Writer) error {
	header := []string{"graph", "type", "vertices", "edges", "avg_degree", "eta"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, row := range r.Rows {
			emit(row.Graph, row.Type,
				strconv.Itoa(row.NumVertices), strconv.Itoa(row.NumEdges),
				formatFloat(row.AverageDegree), formatFloat(row.Eta))
		}
	})
}

// WriteCSV writes `algorithm,comp_ns,comm_ns,delta_c_ns,execution_ns` rows.
func (r *Table2Result) WriteCSV(w io.Writer) error {
	header := []string{"algorithm", "comp_ns", "comm_ns", "delta_c_ns", "execution_ns"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, row := range r.Rows {
			emit(row.Algorithm,
				formatInt(row.Comp.Nanoseconds()), formatInt(row.Comm.Nanoseconds()),
				formatInt(row.DeltaC.Nanoseconds()), formatInt(row.Execution.Nanoseconds()))
		}
	})
}

// WriteCSV writes `graph,eta,workers,algorithm,edge_imbalance,
// vertex_imbalance,replication_factor` rows.
func (r *Table3Result) WriteCSV(w io.Writer) error {
	header := []string{"graph", "eta", "workers", "algorithm",
		"edge_imbalance", "vertex_imbalance", "replication_factor"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, row := range r.Rows {
			for _, c := range row.Cells {
				emit(row.Graph, formatFloat(row.Eta), strconv.Itoa(row.Workers), c.Algorithm,
					formatFloat(c.EdgeImbalance), formatFloat(c.VertexImbalance),
					formatFloat(c.ReplicationFactor))
			}
		}
	})
}

// WriteCSV writes `graph,workers,algorithm,total_messages,emitted_messages,
// delivered_messages,max_mean_ratio,replication_factor` rows (shared by
// Tables IV and V). total_messages is the wire count; emitted/delivered are
// the program-emitted and inbox-delivered counts, both equal to it.
func (r *MessagesResult) WriteCSV(w io.Writer) error {
	header := []string{"graph", "workers", "algorithm",
		"total_messages", "emitted_messages", "delivered_messages",
		"max_mean_ratio", "replication_factor"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, row := range r.Rows {
			for _, c := range row.Cells {
				emit(row.Graph, strconv.Itoa(row.Workers), c.Algorithm,
					formatInt(c.TotalMessages), formatInt(c.Emitted), formatInt(c.Delivered),
					formatFloat(c.MaxMeanRatio), formatFloat(c.Metrics.ReplicationFactor))
			}
		}
	})
}

// WriteCSV writes `app,graph,series,workers,time_ns,messages` rows.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	header := []string{"app", "graph", "series", "workers", "time_ns", "messages"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, panel := range r.Panels {
			for _, s := range panel.Series {
				for _, pt := range s.Points {
					emit(string(panel.App), panel.Graph, s.Series, strconv.Itoa(pt.Workers),
						formatInt(pt.Time.Nanoseconds()), formatInt(pt.Messages))
				}
			}
		}
	})
}

// WriteCSV writes `algorithm,worker,step,stage,start_ns,end_ns` segment rows.
func (r *Fig4Result) WriteCSV(w io.Writer) error {
	header := []string{"algorithm", "worker", "step", "stage", "start_ns", "end_ns"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, panel := range r.Panels {
			for _, seg := range panel.Segments {
				emit(panel.Algorithm, strconv.Itoa(seg.Worker), strconv.Itoa(seg.Step), seg.Stage,
					formatInt(seg.Start.Nanoseconds()), formatInt(seg.End.Nanoseconds()))
			}
		}
	})
}

// WriteCSV writes `graph,variant,subgraphs,edges_processed,replication_factor`
// rows — the Figure 5 curves, one sample per row.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	header := []string{"graph", "variant", "subgraphs", "edges_processed", "replication_factor"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, c := range r.Curves {
			for i := range c.EdgesProcessed {
				emit(c.Graph, c.Variant, strconv.Itoa(c.Subgraphs),
					strconv.Itoa(c.EdgesProcessed[i]), formatFloat(c.ReplicationFactor[i]))
			}
		}
	})
}

// WriteCSV writes `config,graph,subgraphs,edge_imbalance,vertex_imbalance,
// replication_factor` rows.
func (r *AblationResult) WriteCSV(w io.Writer) error {
	header := []string{"config", "graph", "subgraphs",
		"edge_imbalance", "vertex_imbalance", "replication_factor"}
	return writeCSV(w, header, func(emit func(...string)) {
		for _, row := range r.Rows {
			emit(row.Config, row.Graph, strconv.Itoa(row.Subgraphs),
				formatFloat(row.EdgeImbalance), formatFloat(row.VertexImbalance),
				formatFloat(row.ReplicationFactor))
		}
	})
}
