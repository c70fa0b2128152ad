// Package core implements EBV, the paper's primary contribution: the
// Efficient and Balanced Vertex-cut partition algorithm (Algorithm 1).
//
// EBV assigns each edge (u,v) to the subgraph i minimizing the evaluation
// function of §IV-C:
//
//	Eva(u,v)(i) = I(u ∉ keep[i]) + I(v ∉ keep[i])
//	            + α·ecount[i]/(|E|/p) + β·vcount[i]/(|V|/p)
//
// The two indicator terms steer the replication factor; the two ratio terms
// bound the edge and vertex imbalance factors (Theorems 1 and 2). Edges are
// processed in ascending order of end-vertex degree sum (the §IV-C sorting
// preprocessing) unless configured otherwise.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Order selects the edge processing order for EBV.
type Order int

// Edge processing orders.
const (
	// OrderSorted processes edges ascending by end-vertex degree sum —
	// the paper's default ("EBV-sort").
	OrderSorted Order = iota + 1
	// OrderInput processes edges in input order ("EBV-unsort").
	OrderInput
	// OrderSortedDesc processes edges descending by degree sum; exists
	// only for the ablation bench, the paper predicts it is harmful.
	OrderSortedDesc
)

// String returns the order's name as used in §V-D.
func (o Order) String() string {
	switch o {
	case OrderSorted:
		return "sort"
	case OrderInput:
		return "unsort"
	case OrderSortedDesc:
		return "sort-desc"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// EBV is the paper's partitioner. The zero value is NOT ready; use New.
type EBV struct {
	alpha float64
	beta  float64
	order Order

	// growthEvery, when > 0, invokes growth every growthEvery assigned
	// edges with the running replication factor (drives Figure 5).
	growthEvery int
	growth      func(edgesProcessed int, replicationFactor float64)
}

var _ partition.Partitioner = (*EBV)(nil)

// Option configures an EBV instance.
type Option func(*EBV)

// WithAlpha sets the edge-balance weight α (default 1, the paper's setting).
func WithAlpha(alpha float64) Option {
	return func(e *EBV) { e.alpha = alpha }
}

// WithBeta sets the vertex-balance weight β (default 1).
func WithBeta(beta float64) Option {
	return func(e *EBV) { e.beta = beta }
}

// WithOrder sets the edge processing order (default OrderSorted).
func WithOrder(o Order) Option {
	return func(e *EBV) { e.order = o }
}

// WithGrowthTracking registers fn to be called every sampleEvery assigned
// edges with the running replication factor, reproducing the Figure 5
// growth curves. sampleEvery must be positive.
func WithGrowthTracking(sampleEvery int, fn func(edgesProcessed int, replicationFactor float64)) Option {
	return func(e *EBV) {
		e.growthEvery = sampleEvery
		e.growth = fn
	}
}

// New returns an EBV partitioner with the paper's defaults (α = β = 1,
// sorted preprocessing) modified by opts.
func New(opts ...Option) *EBV {
	e := &EBV{alpha: 1, beta: 1, order: OrderSorted}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name implements partition.Partitioner. It distinguishes the sort variants
// the way §V-D does.
func (e *EBV) Name() string {
	if e.order == OrderSorted {
		return "EBV"
	}
	return "EBV-" + e.order.String()
}

// Alpha returns the configured edge-balance weight.
func (e *EBV) Alpha() float64 { return e.alpha }

// Beta returns the configured vertex-balance weight.
func (e *EBV) Beta() float64 { return e.beta }

// Partition implements partition.Partitioner with Algorithm 1: ctx is
// polled before the edge order is built, and the assignment loop polls it every
// partition.CancelCheckInterval edges (the first poll falls between the sort
// and the first assignment), returning ctx.Err() promptly on cancellation.
func (e *EBV) Partition(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if k < 1 {
		return nil, partition.ErrBadPartCount
	}
	if err := checkWeights(e.alpha, e.beta); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	numE, numV := g.NumEdges(), g.NumVertices()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a, nil
	}

	recs := edgeOrder(g, e.order)
	st := partition.NewState(numV, k)
	norm := newFixedNorm(e.alpha, e.beta, numE, numV, k)

	// balance[i] caches α·ecount[i]/(|E|/p) + β·vcount[i]/(|V|/p). Only the
	// part that receives an edge changes, and it is recomputed from the
	// counters with the same expression every time — never updated
	// incrementally — so each score is the float64 a from-scratch
	// evaluation yields.
	balance := norm.balances(st)

	// The loop streams the records and writes each part in processing
	// order; the parts reach a.Parts[ID] in one scatter after the loop.
	// ctx is polled once per CancelCheckInterval edges.
	parts := make([]int32, numE)
	for start := 0; start < numE; start += partition.CancelCheckInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(start+partition.CancelCheckInterval, numE)
		for j, r := range recs[start:end] {
			best := argminScore(balance, st.Row(r.Src), st.Row(r.Dst))
			parts[start+j] = int32(best)
			st.Place(r.Edge, best)
			balance[best] = norm.balance(st.Ecount[best], st.Vcount[best])

			if done := start + j + 1; e.growth != nil && e.growthEvery > 0 && done%e.growthEvery == 0 {
				e.growth(done, float64(st.Replicas)/float64(numV))
			}
		}
	}
	graph.ForPieces(numE, graph.Pieces(numE), func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			a.Parts[recs[j].ID] = parts[j]
		}
	})
	if e.growth != nil && e.growthEvery > 0 {
		e.growth(numE, float64(st.Replicas)/float64(numV))
	}
	return a, nil
}

// checkWeights rejects negative evaluation-function weights.
func checkWeights(alpha, beta float64) error {
	if alpha < 0 || beta < 0 {
		return fmt.Errorf("core: negative hyperparameters alpha=%g beta=%g", alpha, beta)
	}
	return nil
}

// defaultWeights resolves the weights of the struct-configured variants,
// where 0 selects the paper's 1.
func defaultWeights(alpha, beta float64) (float64, float64, error) {
	if alpha == 0 {
		alpha = 1
	}
	if beta == 0 {
		beta = 1
	}
	return alpha, beta, checkWeights(alpha, beta)
}

// fixedNorm is the balance term's normalization when |E| and |V| are known
// up front: the per-unit weights α/(|E|/p) and β/(|V|/p).
type fixedNorm struct{ e, v float64 }

func newFixedNorm(alpha, beta float64, numE, numV, k int) fixedNorm {
	return fixedNorm{
		e: alpha / (float64(numE) / float64(k)),
		v: beta / (float64(numV) / float64(k)),
	}
}

// balance returns α·ecount/(|E|/p) + β·vcount/(|V|/p).
func (n fixedNorm) balance(ecount, vcount int) float64 {
	// The float64 conversions stop a port with fused multiply-add (arm64)
	// from folding a product into the sum: every platform rounds as amd64
	// does, which is what the golden assignments were recorded on.
	return float64(float64(ecount)*n.e) + float64(float64(vcount)*n.v)
}

// balances returns the balance term of every part of st.
func (n fixedNorm) balances(st *partition.State) []float64 {
	out := make([]float64, st.K())
	for i := range out {
		out[i] = n.balance(st.Ecount[i], st.Vcount[i])
	}
	return out
}

// ArgminRunning returns the part Algorithm 1 assigns e to over st when |E|
// and |V| are unknown (§VII: streaming and live arrival): the balance terms
// normalize by the running per-part averages Edges/p and Replicas/p instead
// of |E|/p and |V|/p. balance is scratch for K floats.
func ArgminRunning(st *partition.State, alpha, beta float64, balance []float64, e graph.Edge) int {
	k := float64(st.K())
	avgE := float64(st.Edges)/k + 1
	avgV := float64(st.Replicas)/k + 1
	for i := range balance {
		balance[i] = alpha*float64(st.Ecount[i])/avgE + beta*float64(st.Vcount[i])/avgV
	}
	return argminScore(balance, st.Row(e.Src), st.Row(e.Dst))
}

// argminScore returns the lowest-numbered part i minimizing
// balance[i] + I(u ∉ keep[i]) + I(v ∉ keep[i]), where rowU and rowV are the
// endpoints' membership rows.
func argminScore(balance []float64, rowU, rowV []uint64) int {
	best := 0
	bestBits := math.Float64bits(math.Inf(1))
	for w := range rowU {
		// A set bit in missU/missV is a part the endpoint is not in yet.
		// Adding the indicators as 0.0 or 1.0, u first, is the same float
		// as Algorithm 1's two conditional increments.
		missU, missV := ^rowU[w], ^rowV[w]
		base := w * 64
		for i, bal := range balance[base:min(base+64, len(balance))] {
			score := bal + float64(missU&1)
			score += float64(missV & 1)
			missU >>= 1
			missV >>= 1
			// Strict < keeps the argmin deterministic: ties go to the
			// lowest subgraph id, matching a left-to-right arg min.
			// The comparison is on the bit patterns, which the compiler
			// turns into conditional moves where score < bestScore is a
			// branch on data. Nothing changes: scores are never negative
			// (α, β ≥ 0), so their patterns order as the floats do, and a
			// NaN (from an infinite or NaN α, β) lies above +Inf's
			// pattern, so it never wins — as it never satisfies <.
			if b := math.Float64bits(score); b < bestBits {
				bestBits = b
				best = base + i
			}
		}
	}
	return best
}

// edgeOrder materializes a processing order as (Edge, ID) records.
func edgeOrder(g *graph.Graph, o Order) []graph.IndexedEdge {
	switch o {
	case OrderInput:
		recs := make([]graph.IndexedEdge, g.NumEdges())
		for i, e := range g.Edges() {
			recs[i] = graph.IndexedEdge{Edge: e, ID: int32(i)}
		}
		return recs
	case OrderSortedDesc:
		recs := g.SortedBySumDegree()
		slices.Reverse(recs)
		return recs
	default:
		return g.SortedBySumDegree()
	}
}

// EdgeImbalanceBound returns the Theorem 1 worst-case bound on the edge
// imbalance factor for a graph with numEdges edges split into k subgraphs:
//
//	1 + (p-1)/|E| · (1 + ⌊2|E|/(αp) + β|E|/α⌋)
func (e *EBV) EdgeImbalanceBound(numEdges, k int) float64 {
	if numEdges == 0 || k < 2 || e.alpha <= 0 {
		return math.Inf(1)
	}
	inner := math.Floor(2*float64(numEdges)/(e.alpha*float64(k)) +
		e.beta/e.alpha*float64(numEdges))
	return 1 + float64(k-1)/float64(numEdges)*(1+inner)
}

// VertexImbalanceBound returns the Theorem 2 worst-case bound on the vertex
// imbalance factor, given Σ|Vj| (the total replica count of the result):
//
//	1 + (p-1)/Σ|Vj| · (1 + ⌊2|V|/(βp) + α|V|/β⌋)
func (e *EBV) VertexImbalanceBound(numVertices, totalReplicas, k int) float64 {
	if totalReplicas == 0 || k < 2 || e.beta <= 0 {
		return math.Inf(1)
	}
	inner := math.Floor(2*float64(numVertices)/(e.beta*float64(k)) +
		e.alpha/e.beta*float64(numVertices))
	return 1 + float64(k-1)/float64(totalReplicas)*(1+inner)
}
