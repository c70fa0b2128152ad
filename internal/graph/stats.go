package graph

import (
	"math"
	"sort"
)

// Stats summarizes a graph the way Table I of the paper does.
type Stats struct {
	NumVertices   int
	NumEdges      int
	AverageDegree float64
	MaxDegree     int
	// Eta is the estimated power-law exponent η of the total-degree
	// distribution (P(degree=d) ∝ d^-η, §III-A). Lower is more skewed.
	Eta float64
	// DegreeP50/P99 give a quick sense of skew without fitting.
	DegreeP50 int
	DegreeP99 int
}

// ComputeStats computes Table I style statistics for g.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	degrees := make([]int, n)
	for v := 0; v < n; v++ {
		degrees[v] = g.Degree(VertexID(v))
	}
	sort.Ints(degrees)
	s := Stats{
		NumVertices:   n,
		NumEdges:      g.NumEdges(),
		AverageDegree: g.AverageDegree(),
		Eta:           EstimateEtaAuto(degrees),
	}
	if n > 0 {
		s.MaxDegree = degrees[n-1]
		s.DegreeP50 = degrees[n/2]
		s.DegreeP99 = degrees[min(n-1, n*99/100)]
	}
	return s
}

// EstimateEta estimates the power-law exponent η of a degree sample using
// the continuous maximum-likelihood estimator of Clauset, Shalizi & Newman
// (2009): η = 1 + n / Σ ln(d_i / (dmin - 1/2)), over degrees ≥ dmin.
// The paper applies the same definition even to the non-power-law USARoad
// graph to quantify skew, so we do too. degrees may be unsorted; entries
// below dmin (and zeros) are ignored. Returns NaN if nothing qualifies.
func EstimateEta(degrees []int, dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	var (
		n   int
		sum float64
	)
	shift := float64(dmin) - 0.5
	for _, d := range degrees {
		if d < dmin {
			continue
		}
		n++
		sum += math.Log(float64(d) / shift)
	}
	if n == 0 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/sum
}

// EstimateEtaAuto estimates η with automatic tail-threshold selection in
// the spirit of Clauset, Shalizi & Newman: it scans dmin over powers of two
// and keeps the fit with the smallest Kolmogorov–Smirnov distance between
// the empirical tail distribution and the fitted power law. degrees may be
// unsorted. Returns NaN when no usable tail exists.
func EstimateEtaAuto(degrees []int) float64 {
	sorted := make([]int, 0, len(degrees))
	for _, d := range degrees {
		if d > 0 {
			sorted = append(sorted, d)
		}
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Ints(sorted)
	maxDeg := sorted[len(sorted)-1]

	bestEta, bestKS := math.NaN(), math.Inf(1)
	for dmin := 1; dmin <= maxDeg/2+1; dmin *= 2 {
		// Tail = degrees ≥ dmin; require enough mass for a stable fit.
		lo := sort.SearchInts(sorted, dmin)
		tail := sorted[lo:]
		if len(tail) < 50 {
			break
		}
		eta := EstimateEta(tail, dmin)
		if math.IsNaN(eta) || eta <= 1 {
			continue
		}
		ks := ksDistance(tail, dmin, eta)
		if ks < bestKS {
			bestKS = ks
			bestEta = eta
		}
	}
	if math.IsNaN(bestEta) {
		return EstimateEta(sorted, 1)
	}
	return bestEta
}

// ksDistance computes the Kolmogorov–Smirnov distance between the
// empirical CDF of the (sorted ascending) tail sample and the continuous
// power-law CDF F(d) = 1 − ((d)/(dmin−½))^−(η−1).
func ksDistance(tail []int, dmin int, eta float64) float64 {
	n := float64(len(tail))
	shift := float64(dmin) - 0.5
	maxDist := 0.0
	for i, d := range tail {
		fit := 1 - math.Pow(float64(d)/shift, -(eta-1))
		emp := float64(i+1) / n
		if dist := math.Abs(fit - emp); dist > maxDist {
			maxDist = dist
		}
	}
	return maxDist
}
