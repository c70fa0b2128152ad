package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/rng"
)

// graphInput is one generated edge-list file. The system under test
// receives only Path; the benchmark keeps its own copy of the graph for
// the sequential oracles.
type graphInput struct {
	Name       string `json:"name"`
	Path       string `json:"-"`
	Undirected bool   `json:"undirected"`
	SHA256     string `json:"sha256"`
	// Vertices and Edges are the graph as a reader of the file sees it:
	// the vertex space ends at the highest id that has an edge, and
	// undirected pairs count twice.
	Vertices int   `json:"vertices"`
	Edges    int   `json:"edges"`
	Bytes    int64 `json:"bytes"`

	oracle *graph.Graph
}

// powerLawInput generates the Chung–Lu power-law graph the paper's
// evaluation graphs are modelled on (η = 2.2, directed).
func powerLawInput(dir, name string, seed uint64, vertices, edges int) (*graphInput, error) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: vertices, NumEdges: edges, Eta: 2.2, Directed: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return writeInput(dir, name, g)
}

// roadInput generates the side×side road lattice (undirected, high
// diameter, near-uniform low degree).
func roadInput(dir, name string, seed uint64, side int) (*graphInput, error) {
	g, err := gen.Road(gen.RoadConfig{Width: side, Height: side, Seed: seed})
	if err != nil {
		return nil, err
	}
	return writeInput(dir, name, g)
}

// writeInput writes g as a text edge list, hashing the bytes as they go
// out, and builds the oracle copy over the vertex space a reader of the
// file will reconstruct.
func writeInput(dir, name string, g *graph.Graph) (*graphInput, error) {
	in := &graphInput{Name: name, Path: filepath.Join(dir, name+".txt"), Undirected: g.Undirected()}
	f, err := os.Create(in.Path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	err = graph.WriteEdgeList(io.MultiWriter(f, h), g)
	if info, serr := f.Stat(); err == nil && serr == nil {
		in.Bytes = info.Size()
	} else if err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	in.SHA256 = hex.EncodeToString(h.Sum(nil))

	maxID := -1
	for _, e := range g.Edges() {
		maxID = max(maxID, int(e.Src), int(e.Dst))
	}
	if in.oracle, err = graph.New(maxID+1, g.Edges()); err != nil {
		return nil, err
	}
	in.Vertices, in.Edges = in.oracle.NumVertices(), in.oracle.NumEdges()
	return in, nil
}

// hubVertex returns the vertex with the most out-edges: the SSSP source.
// A fixed id would be a random vertex of a relabelled power-law graph,
// often one with no out-edges, and the job's length would then depend on
// the seed more than on the system.
func hubVertex(g *graph.Graph) graph.VertexID {
	best, bestDeg := graph.VertexID(0), -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > bestDeg {
			best, bestDeg = graph.VertexID(v), d
		}
	}
	return best
}

// sampleVertices draws n distinct vertices that satisfy keep, seeded.
func sampleVertices(g *graph.Graph, seed uint64, n int, keep func(v int) bool) []int64 {
	r := rng.New(seed)
	var out []int64
	for _, v := range r.Perm(g.NumVertices()) {
		if keep(v) {
			out = append(out, int64(v))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// mutation is one edge insert or delete of the serve-mixed write stream.
type mutation struct {
	insert   bool
	src, dst graph.VertexID
}

// mutationStream is the seeded write stream of serve-mixed: batch i is
// a pure function of (seed, i), so every open of a run replays the same
// prefix. Deletes name distinct original edges (so no batch can fail),
// inserts are uniform random pairs.
type mutationStream struct {
	g        *graph.Graph
	seed     uint64
	order    []int // seeded permutation of the original edge indices
	deletes  int   // per batch
	inserts  int   // per batch
	capacity int   // batches before the delete order is exhausted
}

func newMutationStream(g *graph.Graph, seed uint64, batch int) *mutationStream {
	deletes := batch / 5
	if deletes < 1 {
		deletes = 1
	}
	return &mutationStream{
		g: g, seed: seed, order: rng.New(seed).Perm(g.NumEdges()),
		deletes: deletes, inserts: batch - deletes, capacity: g.NumEdges() / deletes,
	}
}

// batch returns mutation batch i (80 % inserts, 20 % deletes).
func (m *mutationStream) batch(i int) ([]mutation, error) {
	if i >= m.capacity {
		return nil, fmt.Errorf("mutation stream exhausted after %d batches", m.capacity)
	}
	r := rng.New(m.seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	n := m.g.NumVertices()
	out := make([]mutation, 0, m.deletes+m.inserts)
	for j := 0; j < m.inserts; j++ {
		out = append(out, mutation{insert: true, src: graph.VertexID(r.Intn(n)), dst: graph.VertexID(r.Intn(n))})
	}
	for _, ei := range m.order[i*m.deletes : (i+1)*m.deletes] {
		e := m.g.Edge(ei)
		out = append(out, mutation{src: e.Src, dst: e.Dst})
	}
	return out, nil
}

// replay returns the graph after the first n batches, computed by the
// benchmark alone: the original edges minus the deleted ones plus the
// inserted ones. Which of several parallel (src,dst) occurrences a
// delete removes does not change the edge multiset.
func (m *mutationStream) replay(n int) (*graph.Graph, error) {
	dead := make(map[int]bool, n*m.deletes)
	for _, ei := range m.order[:n*m.deletes] {
		dead[ei] = true
	}
	edges := make([]graph.Edge, 0, m.g.NumEdges()+n*m.inserts)
	for i, e := range m.g.Edges() {
		if !dead[i] {
			edges = append(edges, e)
		}
	}
	for i := 0; i < n; i++ {
		b, err := m.batch(i)
		if err != nil {
			return nil, err
		}
		for _, mu := range b {
			if mu.insert {
				edges = append(edges, graph.Edge{Src: mu.src, Dst: mu.dst})
			}
		}
	}
	return graph.New(m.g.NumVertices(), edges)
}

// scaled applies -scale to a linear size, keeping it usable.
func scaled(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}

// scaledSide applies -scale to a lattice side (area scales linearly).
func scaledSide(side int, scale float64, floor int) int {
	return max(int(math.Round(float64(side)*math.Sqrt(scale))), floor)
}
