// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every source of randomness in the reproduction — workload address
// streams, the random choice of d-group at which distance replacement
// stops, and the random in-d-group victim selection the paper mandates
// (§3.3.2: "This choice is at random as well because LRU requires
// O(n^2) hardware") — draws from seeded streams of this package, so
// every experiment is bit-reproducible.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// Source is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; use New to seed explicitly. splitmix64 passes BigCrush
// and is the canonical seeder for xoshiro-family generators, while
// being trivially small and allocation-free.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids the
	// modulo on the fast path.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support 0, 1, 2, ...). For p >= 1 it returns 0.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	n := 0
	for !s.Bool(p) {
		n++
		if n >= 1<<20 { // safety bound; astronomically unlikely for sane p
			break
		}
	}
	return n
}

// Split returns a new Source whose seed is derived from this source's
// stream. Independent subsystems each take a Split so that adding a
// consumer does not perturb the draws seen by others.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Zipf generates Zipf-distributed ranks in [0, n) with exponent theta.
// Commercial workload footprints are famously Zipf-like; the workload
// package uses this to produce realistic block popularity skew.
//
// For n up to zipfTabulateLimit a draw inverts the exact tabulated CDF.
// The table depends only on (n, theta), so it is built once per process
// and shared by every sampler with that key; each sampler keeps its own
// Source, so sharing never changes a stream. Larger n map the uniform
// draw through the continuous Zipf inverse CDF instead, an
// approximation adequate for workload skew.
type Zipf struct {
	src   *Source
	n     int
	theta float64
	tab   *zipfTable // nil when n is too large to tabulate
}

// zipfTabulateLimit is the largest n for which we precompute the CDF.
const zipfTabulateLimit = 1 << 16

// zipfTable is the immutable inverse-CDF table of one (n, theta).
// cdf[i] is the normalized cumulative weight of ranks 0..i, so a
// uniform u maps to the smallest i with cdf[i] >= u (n-1 if none).
// guide holds Chen & Asau cutpoints over K = len(guide)-1 equal slices
// of [0, 1], K a power of two: guide[k] is the rank that k/K maps to.
type zipfTable struct {
	cdf   []float64
	guide []int32
	k     float64 // K as a float64; exact, being a power of two
}

func newZipfTable(n int, theta float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// K is the largest power of two not above n/8: under one byte of
	// int32 cutpoints per rank, and a handful of ranks per slice.
	k := 1 << (bits.Len(uint(max(n/8, 1))) - 1)
	guide := make([]int32, k+1)
	i := 0
	for j := range guide {
		t := float64(j) / float64(k)
		for i < n-1 && cdf[i] < t {
			i++
		}
		guide[j] = int32(i)
	}
	return &zipfTable{cdf: cdf, guide: guide, k: float64(k)}
}

// rank maps a uniform u in [0, 1) to its rank. It returns exactly what
// a binary search of the whole CDF returns: let f(u) be the smallest
// i < n-1 with cdf[i] >= u, or n-1 if none. f is non-decreasing and
// guide[j] = f(j/K). Multiplying by the power of two K is exact, so
// j = int(u*K) is exactly floor(u*K) and j/K <= u < (j+1)/K, which
// puts f(u) in [guide[j], guide[j+1]]. Every i in that window below
// f(u) has cdf[i] < u, so searching the window for the first
// cdf[i] >= u (defaulting to its upper end) finds f(u).
func (t *zipfTable) rank(u float64) int {
	j := int(u * t.k)
	lo, hi := int(t.guide[j]), int(t.guide[j+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfKey identifies a table; theta is keyed by its bits, so only an
// identical exponent shares a table.
type zipfKey struct {
	n     int
	theta uint64
}

var (
	zipfMu sync.Mutex
	// zipfTables holds every table built in this process. A sweep
	// uses a few dozen distinct keys, so the cache is never evicted.
	// synccheck:guardedby zipfMu
	zipfTables = map[zipfKey]*zipfTable{}
)

// sharedZipfTable returns the process-wide table for (n, theta),
// building it on first use. Concurrent callers with one key all get
// the same pointer. Builds hold the lock: a sweep makes only a few
// dozen, each a few milliseconds, so other keys rarely wait.
func sharedZipfTable(n int, theta float64) *zipfTable {
	key := zipfKey{n: n, theta: math.Float64bits(theta)}
	zipfMu.Lock()
	defer zipfMu.Unlock()
	t, ok := zipfTables[key]
	if !ok {
		t = newZipfTable(n, theta)
		zipfTables[key] = t
	}
	return t
}

// NewZipf returns a Zipf sampler over [0, n) with exponent theta > 0.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	z := &Zipf{src: src, n: n, theta: theta}
	if n <= zipfTabulateLimit {
		z.tab = sharedZipfTable(n, theta)
	}
	return z
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	if z.tab != nil {
		return z.tab.rank(u)
	}
	return z.approxRank(u)
}

// approxRank maps u through the continuous inverse CDF, for n too
// large to tabulate.
func (z *Zipf) approxRank(u float64) int {
	if z.theta == 1 {
		return int(math.Pow(float64(z.n), u)) - 1
	}
	oneMinus := 1 - z.theta
	x := math.Pow(u*(math.Pow(float64(z.n), oneMinus)-1)+1, 1/oneMinus)
	r := int(x) - 1
	if r < 0 {
		r = 0
	}
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
