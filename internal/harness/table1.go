package harness

import (
	"context"
	"fmt"
	"io"

	"ebv/internal/gen"
	"ebv/internal/graph"
)

// Table1Row is one row of the Table I reproduction: the statistics of one
// evaluation graph.
type Table1Row struct {
	Graph         string
	Type          string // "Directed" or "Undirected"
	NumVertices   int
	NumEdges      int
	AverageDegree float64
	Eta           float64
}

// Table1Result reproduces Table I: statistics of tested graphs.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 generates the four analogue graphs and computes their statistics.
func Table1(ctx context.Context, opt Options) (*Table1Result, error) {
	res := &Table1Result{}
	for _, a := range gen.Analogues() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := Graph(a, opt)
		if err != nil {
			return nil, err
		}
		s := graph.ComputeStats(g)
		typ := "Directed"
		edges := s.NumEdges
		avg := s.AverageDegree
		if g.Undirected() {
			typ = "Undirected"
			// Table I counts each undirected edge once.
			edges = s.NumEdges / 2
			avg = float64(edges) / float64(s.NumVertices)
		}
		res.Rows = append(res.Rows, Table1Row{
			Graph:         a.String(),
			Type:          typ,
			NumVertices:   s.NumVertices,
			NumEdges:      edges,
			AverageDegree: avg,
			Eta:           s.Eta,
		})
	}
	return res, nil
}

// Row returns the row for the named graph, if present.
func (r *Table1Result) Row(name string) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.Graph == name {
			return row, true
		}
	}
	return Table1Row{}, false
}

// Print renders the table in the paper's layout.
func (r *Table1Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Table I: Statistics of tested graphs (scaled analogues)"); err != nil {
		return err
	}
	t := newTable("Graph", "Type", "V", "E", "AvgDeg", "eta")
	for _, row := range r.Rows {
		t.addRowf("%s\t%s\t%d\t%d\t%.2f\t%.2f",
			row.Graph, row.Type, row.NumVertices, row.NumEdges, row.AverageDegree, row.Eta)
	}
	return t.write(w)
}
