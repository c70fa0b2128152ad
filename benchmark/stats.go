package main

import (
	"math"
	"slices"
)

// summary is one metric of one run: the median of its samples (or the
// single value of an exact count) with the spread printed beside it, so a
// reader never sees a median without its quartiles and sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better is "lower" or "higher"; per-layer counts that have no
	// direction leave it empty.
	Better string  `json:"better,omitempty"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// TailPct is the highest percentile with at least ten samples beyond
	// it (0 when N < 11) and Tail is its value.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	// Exact marks a count that repeats exactly for a given seed.
	Exact bool `json:"exact,omitempty"`
}

// median returns the middle sample (mean of the two middle ones for even
// n); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the arithmetic the spread gate is defined with. Fewer than two
// samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentile returns the highest percentile that still has at least
// ten samples beyond it, and the sample at that rank; (0, 0) when there
// are fewer than eleven samples.
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 11 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}

// summarize builds a timing metric's summary from its samples.
func summarize(xs []float64, unit, better string) summary {
	s := summary{Value: median(xs), Unit: unit, Better: better, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Q3 = quartiles(xs)
	s.Min, s.Max = slices.Min(xs), slices.Max(xs)
	s.TailPct, s.Tail = tailPercentile(xs)
	return s
}

// exact builds the summary of a count that repeats exactly.
func exact(v float64, unit, better string) summary {
	return summary{Value: v, Unit: unit, Better: better, N: 1, Q1: v, Q3: v, Min: v, Max: v, Exact: true}
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the bounds are compared against.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// worsening is how much worse b is than a as a share of a, positive when
// worse in the metric's direction ("lower" or "higher" is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
