// Package partition defines the vertex-cut partitioning substrate: the
// Partitioner interface, edge-to-subgraph assignments, replica tables, and
// the three quality metrics of §III-C of the paper (edge imbalance factor,
// vertex imbalance factor, replication factor). The self-based hash
// baselines (Random, DBH, CVC) live here too; the heavier algorithms have
// their own packages (internal/core for EBV, internal/ne, internal/metis,
// internal/ginger).
package partition

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ebv/internal/graph"
)

// ErrBadPartCount reports a requested subgraph count < 1.
var ErrBadPartCount = errors.New("partition: subgraph count must be >= 1")

// Partitioner assigns every edge of a graph to one of k subgraphs
// (vertex-cut / edge partitioning, §III-B).
type Partitioner interface {
	// Name returns the algorithm's display name as used in the paper's
	// tables (e.g. "EBV", "DBH").
	Name() string
	// Partition computes an edge assignment into k subgraphs. The heavy
	// algorithms poll ctx every CancelCheckInterval iterations of their
	// assignment loop and return ctx.Err(), discarding the partial
	// assignment; the O(E) hash baselines poll it once up front.
	Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error)
}

// Assignment is the result of partitioning: Parts[i] is the subgraph of the
// i-th edge of the graph it was computed for.
type Assignment struct {
	K     int
	Parts []int32
}

// NewAssignment allocates an assignment of numEdges edges into k parts.
func NewAssignment(k, numEdges int) *Assignment {
	return &Assignment{K: k, Parts: make([]int32, numEdges)}
}

// Validate checks structural invariants: every part id in [0, K).
func (a *Assignment) Validate() error {
	if a.K < 1 {
		return ErrBadPartCount
	}
	for i, p := range a.Parts {
		if p < 0 || int(p) >= a.K {
			return fmt.Errorf("partition: edge %d assigned to part %d, want [0,%d)", i, p, a.K)
		}
	}
	return nil
}

// EdgeCounts returns |Ei| for each subgraph i.
func (a *Assignment) EdgeCounts() []int {
	counts := make([]int, a.K)
	for _, p := range a.Parts {
		counts[p]++
	}
	return counts
}

// VertexSets computes, for each subgraph i, the covered vertex set
// Vi = {u | (u,v) ∈ Ei ∨ (v,u) ∈ Ei} as a bitset.
func (a *Assignment) VertexSets(g *graph.Graph) []Bitset {
	sets := make([]Bitset, a.K)
	for i := range sets {
		sets[i] = NewBitset(g.NumVertices())
	}
	for i, e := range g.Edges() {
		p := a.Parts[i]
		sets[p].Set(int(e.Src))
		sets[p].Set(int(e.Dst))
	}
	return sets
}

// Metrics are the three partition-quality numbers of §III-C.
type Metrics struct {
	// EdgeImbalance = max_i |Ei| / (|E|/p).
	EdgeImbalance float64
	// VertexImbalance = max_i |Vi| / (Σ|Vi|/p).
	VertexImbalance float64
	// ReplicationFactor = Σ|Vi| / |V|.
	ReplicationFactor float64
	// EdgesPerPart and VerticesPerPart are the raw counts behind the ratios.
	EdgesPerPart    []int
	VerticesPerPart []int
}

// ComputeMetrics evaluates the §III-C metrics of assignment a over g.
func ComputeMetrics(g *graph.Graph, a *Assignment) (Metrics, error) {
	if err := a.Validate(); err != nil {
		return Metrics{}, err
	}
	if len(a.Parts) != g.NumEdges() {
		return Metrics{}, fmt.Errorf("partition: assignment covers %d edges, graph has %d",
			len(a.Parts), g.NumEdges())
	}
	m := Metrics{
		EdgesPerPart:    a.EdgeCounts(),
		VerticesPerPart: make([]int, a.K),
	}
	sets := a.VertexSets(g)
	totalVertices := 0
	for i, s := range sets {
		m.VerticesPerPart[i] = s.Count()
		totalVertices += m.VerticesPerPart[i]
	}
	maxE, maxV := 0, 0
	for i := 0; i < a.K; i++ {
		if m.EdgesPerPart[i] > maxE {
			maxE = m.EdgesPerPart[i]
		}
		if m.VerticesPerPart[i] > maxV {
			maxV = m.VerticesPerPart[i]
		}
	}
	if g.NumEdges() > 0 {
		m.EdgeImbalance = float64(maxE) / (float64(g.NumEdges()) / float64(a.K))
	}
	if totalVertices > 0 {
		m.VertexImbalance = float64(maxV) / (float64(totalVertices) / float64(a.K))
	}
	if g.NumVertices() > 0 {
		m.ReplicationFactor = float64(totalVertices) / float64(g.NumVertices())
	}
	return m, nil
}

// Replicas describes where each vertex is replicated: for vertex v,
// Parts(v) lists the subgraphs whose edge set touches v. Engines use it to
// build replica-synchronization routing tables.
type Replicas struct {
	offsets []int32
	parts   []int32
}

// BuildReplicasFromSets computes the replica table from the per-part
// vertex sets (as produced by Assignment.VertexSets).
func BuildReplicasFromSets(n int, sets []Bitset) *Replicas {
	r := &Replicas{offsets: make([]int32, n+1)}
	counts := make([]int32, n)
	for _, set := range sets {
		set.Range(func(v int) {
			counts[v]++
		})
	}
	for v := 0; v < n; v++ {
		r.offsets[v+1] = r.offsets[v] + counts[v]
	}
	r.parts = make([]int32, r.offsets[n])
	cursor := make([]int32, n)
	copy(cursor, r.offsets[:n])
	for p := range sets {
		part := int32(p)
		sets[p].Range(func(v int) {
			r.parts[cursor[v]] = part
			cursor[v]++
		})
	}
	return r
}

// Parts returns the sorted list of subgraphs holding a replica of v. The
// returned slice aliases internal storage; treat as read-only.
func (r *Replicas) Parts(v graph.VertexID) []int32 {
	return r.parts[r.offsets[v]:r.offsets[v+1]]
}

// ExpectedRandomReplication returns the expected replication factor of a
// uniformly random vertex-cut into k parts:
//
//	E[RF] = (1/|V|) · Σ_v k·(1 − (1 − 1/k)^{deg(v)})
//
// (each of v's deg(v) incident edges independently lands on one of k parts;
// v is replicated on every part hit at least once). This is the analytical
// model PowerGraph uses to argue that random vertex-cuts waste replicas on
// power-law graphs; the Random partitioner's measured RF converges to it,
// which the tests verify.
func ExpectedRandomReplication(g *graph.Graph, k int) float64 {
	if k < 1 || g.NumVertices() == 0 {
		return 0
	}
	q := 1 - 1/float64(k)
	var sum float64
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(graph.VertexID(v))
		if d == 0 {
			continue
		}
		sum += float64(k) * (1 - math.Pow(q, float64(d)))
	}
	return sum / float64(g.NumVertices())
}
