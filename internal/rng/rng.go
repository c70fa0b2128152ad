// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every synthetic-graph generator in this repository.
//
// The implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). It is
// chosen over math/rand because its output is fully specified by this file:
// reproduction runs produce bit-identical graphs regardless of the Go
// release, which keeps every table and figure in EXPERIMENTS.md stable.
package rng

// Source is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; modulo bias is negligible for the n (< 2^40) we use.
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the swap function,
// with the Fisher-Yates algorithm.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new Source whose stream is independent of s. It is used to
// hand deterministic sub-streams to concurrent workers.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}
