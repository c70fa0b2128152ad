package live

import (
	"fmt"
	"math"

	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Policy assigns one inserted edge to a part, online, given the scoring
// state as of that edge (the pre-batch coverage, the batch's deletes taken
// off the edge counts, and the batch's earlier inserts placed) and the
// start-of-batch graph for degree lookups. Implementations must be
// deterministic functions of those (ties broken toward the lowest part id)
// — the patch-vs-rebuild byte-identity contract depends on it, and a
// replayed mutation stream then reproduces the assignment bit for bit.
type Policy interface {
	Name() string
	Assign(st *partition.State, g *graph.Graph, e graph.Edge) int
}

// PolicyByName resolves a mutation policy: "ebv" (the default for ""),
// "hdrf" or "fennel".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "ebv":
		return EBVPolicy{}, nil
	case "hdrf":
		return HDRFPolicy{}, nil
	case "fennel":
		return FennelPolicy{}, nil
	}
	return nil, fmt.Errorf("live: unknown mutation policy %q (want ebv, hdrf or fennel)", name)
}

// EBVPolicy scores parts with the paper's evaluation function in its
// streaming form (core.ArgminRunning, α = β = 1): the balance terms
// normalize by the running per-part averages and each uncovered endpoint
// adds one replication unit; the minimizing part wins.
type EBVPolicy struct{}

// Name implements Policy.
func (EBVPolicy) Name() string { return "ebv" }

// Assign implements Policy.
func (EBVPolicy) Assign(st *partition.State, _ *graph.Graph, e graph.Edge) int {
	return core.ArgminRunning(st, 1, 1, make([]float64, st.K()), e)
}

// HDRFPolicy is High-Degree Replicated First (partition.ArgmaxHDRF, λ = 1,
// the authors' setting) adapted to live arrival: the degree share θ uses
// the current graph's exact degrees instead of observed partial ones. The
// maximizing part wins.
type HDRFPolicy struct{}

// Name implements Policy.
func (HDRFPolicy) Name() string { return "hdrf" }

// Assign implements Policy.
func (HDRFPolicy) Assign(st *partition.State, g *graph.Graph, e graph.Edge) int {
	du := float64(g.OutDegree(e.Src)+g.InDegree(e.Src)) + 1
	dv := float64(g.OutDegree(e.Dst)+g.InDegree(e.Dst)) + 1
	return partition.ArgmaxHDRF(st, 1, du, dv, e)
}

// FennelPolicy is the Fennel objective (partition.Fennel) restated for
// edge arrival over a vertex-cut: endpoint coverage plays the
// neighborhood-intersection role and the marginal replication cost
// α·γ·|Vp|^(γ−1), γ = 1.5, penalizes loaded parts. The maximizing part
// wins.
type FennelPolicy struct{}

// Name implements Policy.
func (FennelPolicy) Name() string { return "fennel" }

// Assign implements Policy.
func (FennelPolicy) Assign(st *partition.State, g *graph.Graph, e graph.Edge) int {
	const gamma = 1.5
	n := float64(g.NumVertices())
	if n == 0 {
		n = 1
	}
	alpha := math.Sqrt(float64(st.K())) * float64(st.Edges) / math.Pow(n, 1.5)
	best, bestScore := 0, math.Inf(-1)
	for p, vcount := range st.Vcount {
		var gain float64
		if st.Covers(p, e.Src) {
			gain++
		}
		if st.Covers(p, e.Dst) {
			gain++
		}
		// The conversion keeps a fused-multiply-add port (arm64) from
		// folding the product into the subtraction: every platform rounds
		// as amd64 does.
		score := gain - float64(alpha*gamma*math.Pow(float64(vcount), gamma-1))
		if score > bestScore {
			bestScore = score
			best = p
		}
	}
	return best
}
