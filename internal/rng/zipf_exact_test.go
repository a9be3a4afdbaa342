package rng_test

import (
	"math"
	"math/bits"
	"testing"

	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/workload"
)

type zipfKey struct {
	n     int
	theta float64
}

// workloadZipfKeys lists every distinct (n, theta) the profiles and
// mixes sample, with the generators' clamp of empty footprints to one
// block.
func workloadZipfKeys() []zipfKey {
	var keys []zipfKey
	seen := map[zipfKey]bool{}
	add := func(n int, theta float64) {
		key := zipfKey{max(n, 1), theta}
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	for _, p := range workload.Multithreaded(42) {
		add(p.CodeBlocks, p.CodeTheta)
		add(p.ROBlocks, p.ROTheta)
		add(p.RWBlocks, p.RWTheta)
		for _, b := range p.PrivateBlocks {
			add(b, p.PrivateTheta)
		}
	}
	for _, apps := range workload.MixApps() {
		for _, a := range apps {
			add(a.Blocks, a.Theta)
		}
	}
	return keys
}

// TestZipfGuideMatchesBisection checks the guide-table lookup against
// a binary search of the whole CDF: on random draws, on every slice
// boundary k/K, and on the largest float64 below each boundary, where
// an off-by-one in the slice index would show.
func TestZipfGuideMatchesBisection(t *testing.T) {
	keys := append(workloadZipfKeys(),
		zipfKey{1, 0.9}, zipfKey{2, 0.9}, zipfKey{2, 0.3},
		zipfKey{3, 1.0}, zipfKey{7, 0.5}, zipfKey{9, 0.95},
		zipfKey{1000, 0.9}, zipfKey{12_347, 0.3}, zipfKey{65_535, 0.99}, zipfKey{1 << 16, 0.5},
		// theta = 0 is uniform: with n a power of two, CDF entries
		// land exactly on slice boundaries, where a guide built with
		// <= instead of < would skip a rank.
		zipfKey{16, 0}, zipfKey{1024, 0})
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	src := rng.New(42)
	for _, key := range keys {
		z := rng.NewZipf(rng.New(1), key.n, key.theta)
		k := rng.ZipfSlices(z)
		if k < 1 || bits.OnesCount(uint(k)) != 1 || k > max(key.n/8, 1) {
			t.Fatalf("n=%d theta=%v: K=%d is not a power of two within max(n/8, 1)", key.n, key.theta, k)
		}
		check := func(u float64) {
			if got, want := rng.ZipfRank(z, u), rng.ZipfRankBisect(z, u); got != want {
				t.Fatalf("n=%d theta=%v u=%v: guide rank %d, bisection rank %d", key.n, key.theta, u, got, want)
			}
		}
		for j := 0; j < k; j++ {
			check(float64(j) / float64(k))
			if j > 0 {
				check(math.Nextafter(float64(j)/float64(k), 0))
			}
		}
		check(math.Nextafter(1, 0))
		for i := 0; i < draws; i++ {
			check(src.Float64())
		}
	}
}

// TestZipfNextMatchesRank pins Next to the rank of the draw it takes,
// so the exactness test above covers the sampler the workloads use.
func TestZipfNextMatchesRank(t *testing.T) {
	z := rng.NewZipf(rng.New(5), 53_248, 0.30)
	src := rng.New(5)
	for i := 0; i < 10_000; i++ {
		if got, want := z.Next(), rng.ZipfRankBisect(z, src.Float64()); got != want {
			t.Fatalf("draw %d: Next %d, bisection of the same draw %d", i, got, want)
		}
	}
}
