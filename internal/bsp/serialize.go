package bsp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ebv/internal/frame"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Subgraph serialization — the one shard format, used wherever a subgraph
// leaves the process that built it: the shard the cluster coordinator
// ships in its assign frame. An EBVS frame (package frame) whose header
// words state each column's length, so encoding is one pass into an
// exactly-sized buffer and decoding one allocation per column:
//
//	words: flags | part | workers | globalVertices | ids | edges |
//	       peerLens | peers | outDegrees | inDegrees | weights
//	body:  ids × u32 GlobalIDs | edges × (u32 src, u32 dst) |
//	       peerLens × u32 len(PeersOf(v)) | peers × i32 (Peers) |
//	       outDegrees × i32 | inDegrees × i32 | weights × f64
//
// Flags bit 0 marks a weighted shard (Weights non-nil). PeerStart is
// shipped as its row lengths; the dense local index is rebuilt on load and
// the derived tables (Out, Routing, ...) on first use. Any layout
// change bumps shardVersion (TestGoldenShards pins the bytes).
const (
	shardVersion = 1

	shardFlagWeighted = 1 << 0
)

var shardFrame = frame.Format{Name: "EBVS", Version: shardVersion, Words: 11}

// WriteSubgraph serializes sub with a single Write.
func WriteSubgraph(w io.Writer, sub *Subgraph) error {
	n := len(sub.GlobalIDs)
	flags := 0
	if sub.Weights != nil {
		flags = shardFlagWeighted
	}
	buf := shardFrame.Begin(4*(2*n+2*len(sub.Edges)+len(sub.Peers)+
		len(sub.GlobalOutDegree)+len(sub.GlobalInDegree))+8*len(sub.Weights),
		flags, sub.Part, sub.NumWorkers, sub.NumGlobalVertices,
		n, len(sub.Edges), n, len(sub.Peers),
		len(sub.GlobalOutDegree), len(sub.GlobalInDegree), len(sub.Weights))
	buf = frame.AppendU32s(buf, sub.GlobalIDs)
	for _, e := range sub.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
	}
	for l := range n {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sub.PeerStart[l+1]-sub.PeerStart[l]))
	}
	buf = frame.AppendU32s(buf, sub.Peers)
	buf = frame.AppendU32s(buf, sub.GlobalOutDegree)
	buf = frame.AppendU32s(buf, sub.GlobalInDegree)
	buf = frame.AppendF64s(buf, sub.Weights)
	if _, err := w.Write(frame.Seal(buf)); err != nil {
		return fmt.Errorf("bsp: write subgraph %d: %w", sub.Part, err)
	}
	return nil
}

// ReadSubgraph deserializes a subgraph written by WriteSubgraph, verifies
// its checksum, validates its structural invariants (per-vertex and
// per-edge column lengths, ascending GlobalIDs, replica peers in range,
// edge endpoints in local range, weights non-negative) and rebuilds the
// dense local index. A corrupt or truncated shard fails here rather than
// panicking mid-superstep; the body is read with frame.ReadBounded, so a
// corrupt header cannot size an allocation. There is one format: bytes
// that are not an EBVS frame of this version — a shard file from a build
// that still wrote gob — are rejected by name.
func ReadSubgraph(r io.Reader) (*Subgraph, error) {
	fr, word, err := shardFrame.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bsp: subgraph shard: %w: re-run ebv-partition", err)
	}
	// Sized in 64 bits: no header can overflow the sum, and once it fits an
	// int so does every count in it.
	body := 4*(word[4]+2*word[5]+word[6]+word[7]+word[8]+word[9]) + 8*word[10]
	if body > math.MaxInt {
		return nil, fmt.Errorf("bsp: corrupt subgraph: header describes %d column bytes", body)
	}
	flags := word[0]
	numIDs, numEdges, numPeerLens, numPeers := int(word[4]), int(word[5]), int(word[6]), int(word[7])
	numOut, numIn, numWeights := int(word[8]), int(word[9]), int(word[10])
	data, err := frame.ReadBounded(fr, int(body))
	if err != nil {
		return nil, fmt.Errorf("bsp: read subgraph columns (%d bytes): %w", body, err)
	}
	if err := fr.Verify(); err != nil {
		return nil, fmt.Errorf("bsp: corrupt subgraph: %w", err)
	}

	sub := newSubgraph(int(word[1]), int(word[2]), int(word[3])) // a negative int fails below
	// Every per-vertex column must cover the vertex set and every per-edge
	// column the edge set, or programs index out of range at run time.
	if numPeerLens != numIDs || numOut != numIDs || numIn != numIDs {
		return nil, fmt.Errorf("bsp: corrupt subgraph: %d ids, %d peers, %d out-degrees, %d in-degrees",
			numIDs, numPeerLens, numOut, numIn)
	}
	weighted := flags&shardFlagWeighted != 0
	if flags&^shardFlagWeighted != 0 || (weighted && numWeights != numEdges) || (!weighted && numWeights != 0) {
		return nil, fmt.Errorf("bsp: corrupt subgraph: %d weights for %d edges (flags %#x)",
			numWeights, numEdges, flags)
	}
	// The dense local index rebuilt below allocates up to NumGlobalVertices
	// entries, so bound it like the graph loaders bound their vertex count
	// (a corrupt header must not force a giant allocation).
	const maxWireVertices = 1 << 28
	if sub.NumGlobalVertices < 0 || sub.NumGlobalVertices > maxWireVertices {
		return nil, fmt.Errorf("bsp: corrupt subgraph: global vertex count %d", sub.NumGlobalVertices)
	}
	// Replica routing: programs size their outboxes by NumWorkers and
	// index them by peer id, so an out-of-range peer panics a superstep.
	if sub.NumWorkers < 1 || sub.NumWorkers > partition.MaxParts || sub.Part < 0 || sub.Part >= sub.NumWorkers {
		return nil, fmt.Errorf("bsp: corrupt subgraph: part %d of %d workers",
			sub.Part, sub.NumWorkers)
	}
	if numPeers > math.MaxInt32 { // PeerStart's offsets are int32
		return nil, fmt.Errorf("bsp: corrupt subgraph: %d replica peers", numPeers)
	}

	// The column lengths sum to len(data) by construction, so no Take can
	// come up short.
	var peerLens []uint32
	sub.GlobalIDs, data, _ = frame.TakeU32s[graph.VertexID](data, numIDs)
	edgeCol, data := data[:8*numEdges], data[8*numEdges:]
	peerLens, data, _ = frame.TakeU32s[uint32](data, numPeerLens)
	sub.Peers, data, _ = frame.TakeU32s[int32](data, numPeers)
	sub.GlobalOutDegree, data, _ = frame.TakeU32s[int32](data, numOut)
	sub.GlobalInDegree, data, _ = frame.TakeU32s[int32](data, numIn)
	if weighted { // non-nil even for an edgeless part: programs test Weights against nil
		sub.Weights, _, _ = frame.TakeF64s(data, numWeights)
	}

	// Strictly ascending GlobalIDs inside [0, NumGlobalVertices) is a
	// structural invariant of the build.
	for i, gid := range sub.GlobalIDs {
		if i > 0 && gid <= sub.GlobalIDs[i-1] {
			return nil, fmt.Errorf("bsp: corrupt subgraph: global ids not strictly ascending at %d", i)
		}
		if gid >= graph.VertexID(sub.NumGlobalVertices) { // in [0, 2²⁸]: no int conversion wraps a u32
			return nil, fmt.Errorf("bsp: corrupt subgraph: global id %d outside %d vertices",
				gid, sub.NumGlobalVertices)
		}
	}
	sub.Edges = make([]graph.Edge, numEdges)
	for i := range sub.Edges {
		e := graph.Edge{
			Src: binary.LittleEndian.Uint32(edgeCol[8*i:]),
			Dst: binary.LittleEndian.Uint32(edgeCol[8*i+4:]),
		}
		if e.Src >= uint32(numIDs) || e.Dst >= uint32(numIDs) { // numIDs came from a u32 word
			return nil, fmt.Errorf("bsp: corrupt subgraph: edge %d (%d,%d) outside %d local vertices",
				i, e.Src, e.Dst, numIDs)
		}
		sub.Edges[i] = e
	}
	// A negative cycle inside one part would keep weighted SSSP relaxing
	// within a single superstep, where cancellation is never polled; the
	// build refuses such weights, and so does the decoder.
	for i, w := range sub.Weights {
		if !(w >= 0) {
			return nil, fmt.Errorf("bsp: corrupt subgraph: edge %d has weight %g", i, w)
		}
	}
	sub.PeerStart = make([]int32, numIDs+1)
	for l, n := range peerLens {
		start := sub.PeerStart[l]
		if left := numPeers - int(start); uint64(n) > uint64(left) {
			return nil, fmt.Errorf("bsp: corrupt subgraph: vertex %d claims %d of the %d replica peers left",
				l, n, left)
		}
		sub.PeerStart[l+1] = start + int32(n)
		row := sub.PeersOf(int32(l))
		for j, q := range row {
			if q < 0 || int(q) >= sub.NumWorkers || int(q) == sub.Part {
				return nil, fmt.Errorf("bsp: corrupt subgraph: vertex %d peer %d invalid for part %d of %d workers",
					l, q, sub.Part, sub.NumWorkers)
			}
			if j > 0 && q <= row[j-1] {
				return nil, fmt.Errorf("bsp: corrupt subgraph: vertex %d peers not strictly ascending", l)
			}
		}
	}
	if left := numPeers - int(sub.PeerStart[numIDs]); left != 0 {
		return nil, fmt.Errorf("bsp: corrupt subgraph: %d replica peers belong to no vertex", left)
	}
	sub.buildLocalIndex()
	return sub, nil
}
