// Package live is the mutation layer over an open session: it accepts an
// edge-insert/delete stream against a prepared deployment, assigns new
// edges online with a streaming vertex-cut policy (streaming EBV, HDRF or
// Fennel-style), patches exactly the subgraphs a batch touched using the
// part-parallel builder as the delta primitive, and versions the graph
// with an epoch counter so in-flight jobs finish on the snapshot they
// started with (DESIGN.md §13). It holds mutations only: a job warm-starts
// from a previous result through the programs' own Warm fields (apps.CC,
// apps.PageRank).
package live

import (
	"encoding/binary"
	"fmt"

	"ebv/internal/frame"
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

// Mutation batches travel between processes (the serve endpoint, the
// bench's stream generator) as EBVL frames (package frame): one header
// word, count, and a body of count × (u32 op, u32 src, u32 dst). Decoding
// validates magic, version, checksum, count bound and exact length before
// trusting any field.
const (
	mutationVersion = 1

	// maxMutationsPerBatch bounds a decoded batch (16M mutations ≈ 192 MB
	// decoded) so a hostile count field cannot drive allocation.
	maxMutationsPerBatch = 1 << 24
)

var mutationFrame = frame.Format{Name: "EBVL", Version: mutationVersion, Words: 1}

// EncodeMutations serializes a batch as an EBVL frame.
func EncodeMutations(muts []Mutation) ([]byte, error) {
	if len(muts) > maxMutationsPerBatch {
		return nil, fmt.Errorf("live: batch of %d mutations exceeds the %d cap",
			len(muts), maxMutationsPerBatch)
	}
	buf := mutationFrame.Begin(12*len(muts), len(muts))
	for _, m := range muts {
		if m.Op != OpInsert && m.Op != OpDelete {
			return nil, fmt.Errorf("live: encode unknown op %d", uint32(m.Op))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Dst))
	}
	return frame.Seal(buf), nil
}

// DecodeMutations parses and validates an EBVL batch. Every framing
// violation — bad magic or version, oversized count, truncation, trailing
// bytes, checksum mismatch, unknown op — is rejected with an error.
func DecodeMutations(data []byte) ([]Mutation, error) {
	word, body, err := mutationFrame.Open(data)
	if err != nil {
		return nil, fmt.Errorf("live: mutation batch: %w", err)
	}
	count := word[0]
	if count > maxMutationsPerBatch {
		return nil, fmt.Errorf("live: batch count %d exceeds the %d cap", count, maxMutationsPerBatch)
	}
	if len(body) != 12*count {
		return nil, fmt.Errorf("live: mutation batch body is %d bytes, %d mutations need %d", len(body), count, 12*count)
	}
	muts := make([]Mutation, count)
	for i := range muts {
		m := body[12*i:]
		op := Op(binary.LittleEndian.Uint32(m))
		if op != OpInsert && op != OpDelete {
			return nil, fmt.Errorf("live: unknown op %d at mutation %d", uint32(op), i)
		}
		muts[i] = Mutation{
			Op:  op,
			Src: graph.VertexID(binary.LittleEndian.Uint32(m[4:])),
			Dst: graph.VertexID(binary.LittleEndian.Uint32(m[8:])),
		}
	}
	return muts, nil
}
