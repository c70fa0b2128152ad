package bsp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"ebv/internal/graph"
	"ebv/internal/transport"
)

// Subgraph serialization — the one shard format, used wherever a subgraph
// leaves the process that built it: the shard the cluster coordinator
// ships in its assign frame. Columnar and little-endian, so
// encoding is one pass into an exactly-sized buffer and decoding is one
// allocation per column:
//
//	u32 magic "EBVS" | u32 version | u32 flags | u32 part | u32 workers |
//	u32 globalVertices | u32 ids | u32 edges | u32 peerLens | u32 peers |
//	u32 outDegrees | u32 inDegrees | u32 weights |
//	ids × u32 GlobalIDs | edges × (u32 src, u32 dst) |
//	peerLens × u32 len(ReplicaPeers[v]) | peers × i32 (the lists, flattened) |
//	outDegrees × i32 | inDegrees × i32 | weights × f64 | u32 crc
//
// The header states every column's length; crc is CRC-32C over everything
// before it; flags bit 0 marks a weighted shard (Weights non-nil). The CSR
// views and the dense local index are rebuilt on load instead of shipped.
// Any layout change bumps shardVersion (TestGoldenShards pins the bytes).
const (
	shardMagic   = 0x45425653 // "EBVS"
	shardVersion = 1

	shardHeaderWords = 13
	shardHeaderBytes = 4 * shardHeaderWords

	shardFlagWeighted = 1 << 0
)

var shardCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteSubgraph serializes sub with a single Write.
func WriteSubgraph(w io.Writer, sub *Subgraph) error {
	numPeers := 0
	for _, peers := range sub.ReplicaPeers {
		numPeers += len(peers)
	}
	flags := 0
	if sub.Weights != nil {
		flags = shardFlagWeighted
	}
	header := [shardHeaderWords]int{
		shardMagic, shardVersion, flags, sub.Part, sub.NumWorkers, sub.NumGlobalVertices,
		len(sub.GlobalIDs), len(sub.Edges), len(sub.ReplicaPeers), numPeers,
		len(sub.GlobalOutDegree), len(sub.GlobalInDegree), len(sub.Weights),
	}
	buf := make([]byte, 0, shardHeaderBytes+4*(len(sub.GlobalIDs)+2*len(sub.Edges)+len(sub.ReplicaPeers)+
		numPeers+len(sub.GlobalOutDegree)+len(sub.GlobalInDegree))+8*len(sub.Weights)+4)
	for _, v := range header {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = transport.AppendU32s(buf, sub.GlobalIDs)
	for _, e := range sub.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
	}
	for _, peers := range sub.ReplicaPeers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(peers)))
	}
	for _, peers := range sub.ReplicaPeers {
		buf = transport.AppendU32s(buf, peers)
	}
	buf = transport.AppendU32s(buf, sub.GlobalOutDegree)
	buf = transport.AppendU32s(buf, sub.GlobalInDegree)
	buf = transport.AppendF64s(buf, sub.Weights)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, shardCRC))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("bsp: write subgraph %d: %w", sub.Part, err)
	}
	return nil
}

// ReadSubgraph deserializes a subgraph written by WriteSubgraph, verifies
// its checksum, validates its structural invariants (per-vertex and
// per-edge column lengths, ascending GlobalIDs, replica peers in range,
// edge endpoints in local range) and rebuilds the CSR views. A corrupt or
// truncated shard fails here rather than panicking mid-superstep; the
// body is read with transport.ReadBounded, so a corrupt header cannot
// size an allocation. There is one format: bytes that do not start with
// its magic — a shard file from a build that still wrote gob — are
// rejected by name.
func ReadSubgraph(r io.Reader) (*Subgraph, error) {
	var header [shardHeaderBytes]byte
	if _, err := io.ReadFull(r, header[:4]); err != nil {
		return nil, fmt.Errorf("bsp: read subgraph magic: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(header[:4]); magic != shardMagic {
		return nil, fmt.Errorf("bsp: not an EBVS subgraph shard (magic %#x): written by an older build? re-run ebv-partition", magic)
	}
	if _, err := io.ReadFull(r, header[4:]); err != nil {
		return nil, fmt.Errorf("bsp: read subgraph header: %w", err)
	}
	var word [shardHeaderWords]uint64
	for i := range word {
		word[i] = uint64(binary.LittleEndian.Uint32(header[4*i:]))
	}
	if word[1] != shardVersion {
		return nil, fmt.Errorf("bsp: subgraph shard version %d, this build reads %d: re-run ebv-partition", word[1], shardVersion)
	}
	// Sized in 64 bits: no header can overflow the sum, and once it fits an
	// int so does every count in it.
	body := 4*(word[6]+2*word[7]+word[8]+word[9]+word[10]+word[11]) + 8*word[12]
	if body > math.MaxInt-4 {
		return nil, fmt.Errorf("bsp: corrupt subgraph: header describes %d column bytes", body)
	}
	flags := word[2]
	numIDs, numEdges, numPeerLens, numPeers := int(word[6]), int(word[7]), int(word[8]), int(word[9])
	numOut, numIn, numWeights := int(word[10]), int(word[11]), int(word[12])
	data, err := transport.ReadBounded(r, int(body)+4)
	if err != nil {
		return nil, fmt.Errorf("bsp: read subgraph columns (%d bytes): %w", body, err)
	}
	data, sum := data[:body], binary.LittleEndian.Uint32(data[body:])
	if crc := crc32.Update(crc32.Checksum(header[:], shardCRC), shardCRC, data); crc != sum {
		return nil, fmt.Errorf("bsp: corrupt subgraph: checksum %#x, computed %#x", sum, crc)
	}

	sub := &Subgraph{Part: int(word[3]), NumWorkers: int(word[4]), NumGlobalVertices: int(word[5]),
		routing: new(lazy[*Routing]), comps: new(lazy[[]int32]), depth: new(lazy[Depth])}
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
	if sub.NumWorkers < 1 || sub.Part < 0 || sub.Part >= sub.NumWorkers {
		return nil, fmt.Errorf("bsp: corrupt subgraph: part %d of %d workers",
			sub.Part, sub.NumWorkers)
	}

	// The column lengths sum to len(data) by construction, so no Take can
	// come up short.
	var peerLens []uint32
	var peers []int32
	sub.GlobalIDs, data, _ = transport.TakeU32s[graph.VertexID](data, numIDs)
	edgeCol, data := data[:8*numEdges], data[8*numEdges:]
	peerLens, data, _ = transport.TakeU32s[uint32](data, numPeerLens)
	peers, data, _ = transport.TakeU32s[int32](data, numPeers)
	sub.GlobalOutDegree, data, _ = transport.TakeU32s[int32](data, numOut)
	sub.GlobalInDegree, data, _ = transport.TakeU32s[int32](data, numIn)
	if weighted { // non-nil even for an edgeless part: programs test Weights against nil
		sub.Weights, _, _ = transport.TakeF64s(data, numWeights)
	}

	// Strictly ascending GlobalIDs inside [0, NumGlobalVertices) is a
	// structural invariant of the build.
	for i, gid := range sub.GlobalIDs {
		if i > 0 && gid <= sub.GlobalIDs[i-1] {
			return nil, fmt.Errorf("bsp: corrupt subgraph: global ids not strictly ascending at %d", i)
		}
		if int(gid) >= sub.NumGlobalVertices {
			return nil, fmt.Errorf("bsp: corrupt subgraph: global id %d outside %d vertices",
				gid, sub.NumGlobalVertices)
		}
	}
	sub.Edges = make([]graph.Edge, numEdges)
	for i := range sub.Edges {
		sub.Edges[i] = graph.Edge{
			Src: binary.LittleEndian.Uint32(edgeCol[8*i:]),
			Dst: binary.LittleEndian.Uint32(edgeCol[8*i+4:]),
		}
	}
	sub.ReplicaPeers = make([][]int32, numIDs)
	for local, n := range peerLens {
		if int(n) > len(peers) {
			return nil, fmt.Errorf("bsp: corrupt subgraph: vertex %d claims %d of the %d replica peers left",
				local, n, len(peers))
		}
		if n == 0 {
			continue
		}
		// Capacity-capped, so an append to one list cannot reach the next.
		list := peers[:n:n]
		peers = peers[n:]
		for j, q := range list {
			if q < 0 || int(q) >= sub.NumWorkers || int(q) == sub.Part {
				return nil, fmt.Errorf("bsp: corrupt subgraph: vertex %d peer %d invalid for part %d of %d workers",
					local, q, sub.Part, sub.NumWorkers)
			}
			if j > 0 && q <= list[j-1] {
				return nil, fmt.Errorf("bsp: corrupt subgraph: vertex %d peers not strictly ascending", local)
			}
		}
		sub.ReplicaPeers[local] = list
	}
	if len(peers) != 0 {
		return nil, fmt.Errorf("bsp: corrupt subgraph: %d replica peers belong to no vertex", len(peers))
	}
	sub.buildLocalIndex()
	lg, err := graph.New(sub.NumLocalVertices(), sub.Edges)
	if err != nil {
		return nil, fmt.Errorf("bsp: rebuild local graph: %w", err)
	}
	sub.Out = graph.BuildCSR(lg)
	return sub, nil
}
