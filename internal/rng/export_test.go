package rng

// Hooks for the external rng_test package, which needs the workload
// package's footprints and so cannot live in package rng.

// ZipfRank maps u through z's table exactly as Next maps its draw.
func ZipfRank(z *Zipf, u float64) int { return z.tab.rank(u) }

// ZipfRankBisect is the reference sampler: a binary search of z's
// whole CDF for the first entry >= u.
func ZipfRankBisect(z *Zipf, u float64) int {
	cdf := z.tab.cdf
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ZipfSlices returns K, the number of guide-table slices, or 0 when z
// is not tabulated.
func ZipfSlices(z *Zipf) int {
	if z.tab == nil {
		return 0
	}
	return len(z.tab.guide) - 1
}
