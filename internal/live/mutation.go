// Package live is the mutation layer over an open session: it accepts an
// edge-insert/delete stream against a prepared deployment, assigns new
// edges online with a streaming vertex-cut policy (streaming EBV, HDRF or
// Fennel-style), patches exactly the subgraphs a batch touched with the
// subgraph builder's own passes (bsp.BucketByPart, bsp.Coverage,
// bsp.BuildPart), and versions the graph with an epoch counter so
// in-flight jobs finish on the snapshot they started with (DESIGN.md §13).
// A batch arrives as a []Mutation value; it has no wire format of its
// own (ebv-serve decodes it from a JSON request). The package holds
// mutations only: a job warm-starts from a previous result through the
// program's own Warm field (apps.PageRank).
package live

import (
	"fmt"

	"ebv/internal/graph"
)

// Op is a mutation kind.
type Op uint32

const (
	// OpInsert appends the edge to the graph (parallel edges allowed,
	// matching the edge-list substrate).
	OpInsert Op = 1
	// OpDelete removes one occurrence of the edge (the lowest-indexed
	// one); deleting an absent edge rejects the whole batch.
	OpDelete Op = 2
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint32(o))
}

// Mutation is one edge insert or delete, in global vertex ids.
type Mutation struct {
	Op  Op
	Src graph.VertexID
	Dst graph.VertexID
}
