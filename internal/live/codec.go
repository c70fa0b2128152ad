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
	"hash/crc32"

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
// bench's stream generator) in the EBVL framing: little-endian u32 words
//
//	magic "EBVL" | version | count | count × (op, src, dst) | CRC-32C
//
// with the checksum (Castagnoli, matching the EBVK checkpoint codec)
// taken over every preceding byte. Decoding validates magic, version,
// count bound, exact length and checksum before trusting any field.
const (
	mutationMagic   = 0x4542564C // "EBVL"
	mutationVersion = 1

	// maxMutationsPerBatch bounds a decoded batch (16M mutations ≈ 192 MB
	// decoded) so a hostile count field cannot drive allocation.
	maxMutationsPerBatch = 1 << 24
)

var mutationCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeMutations serializes a batch in the EBVL framing.
func EncodeMutations(muts []Mutation) ([]byte, error) {
	if len(muts) > maxMutationsPerBatch {
		return nil, fmt.Errorf("live: batch of %d mutations exceeds the %d cap",
			len(muts), maxMutationsPerBatch)
	}
	buf := make([]byte, 0, 4*(3+3*len(muts)+1))
	buf = binary.LittleEndian.AppendUint32(buf, mutationMagic)
	buf = binary.LittleEndian.AppendUint32(buf, mutationVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(muts)))
	for _, m := range muts {
		if m.Op != OpInsert && m.Op != OpDelete {
			return nil, fmt.Errorf("live: encode unknown op %d", uint32(m.Op))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Dst))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, mutationCRC))
	return buf, nil
}

// DecodeMutations parses and validates an EBVL batch. Every framing
// violation — bad magic or version, oversized count, truncation, trailing
// bytes, checksum mismatch, unknown op — is rejected with an error.
func DecodeMutations(data []byte) ([]Mutation, error) {
	const headerWords, trailerWords = 3, 1
	if len(data) < 4*(headerWords+trailerWords) {
		return nil, fmt.Errorf("live: mutation batch truncated at %d bytes", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != mutationMagic {
		return nil, fmt.Errorf("live: bad mutation batch magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != mutationVersion {
		return nil, fmt.Errorf("live: unsupported mutation batch version %d", v)
	}
	count := binary.LittleEndian.Uint32(data[8:])
	if count > maxMutationsPerBatch {
		return nil, fmt.Errorf("live: batch count %d exceeds the %d cap", count, maxMutationsPerBatch)
	}
	want := 4 * (headerWords + 3*int(count) + trailerWords)
	if len(data) != want {
		return nil, fmt.Errorf("live: mutation batch is %d bytes, framing says %d", len(data), want)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.Checksum(body, mutationCRC); sum != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("live: mutation batch checksum mismatch")
	}
	muts := make([]Mutation, count)
	for i := range muts {
		off := 4 * (headerWords + 3*i)
		op := Op(binary.LittleEndian.Uint32(body[off:]))
		if op != OpInsert && op != OpDelete {
			return nil, fmt.Errorf("live: unknown op %d at mutation %d", uint32(op), i)
		}
		muts[i] = Mutation{
			Op:  op,
			Src: graph.VertexID(binary.LittleEndian.Uint32(body[off+4:])),
			Dst: graph.VertexID(binary.LittleEndian.Uint32(body[off+8:])),
		}
	}
	return muts, nil
}
