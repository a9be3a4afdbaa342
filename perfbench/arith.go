package main

import (
	"sort"
	"time"
)

// This file holds the benchmark's own arithmetic: order statistics,
// the scheduler's busy fraction and idle tail, the failure fraction
// and the nominal instruction count. It is kept free of I/O so the
// tests can check it on synthetic inputs.

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// hiLadder is the set of percentiles a tail is reported at, highest
// first.
var hiLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of hiLadder that has
// at least ten of n samples beyond it. Below twenty samples no
// percentile above the median qualifies, and it returns 50.
func tailPercentile(n int) float64 {
	for _, p := range hiLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // ten samples beyond, allowing for 100-p's rounding
			return p
		}
	}
	return 50
}

// highPercentile returns tailPercentile for xs and its value.
func highPercentile(xs []float64) (p, value float64) {
	p = tailPercentile(len(xs))
	return p, percentile(xs, p)
}

// span is one interval on the host clock, relative to a common origin.
type span struct{ start, end time.Duration }

// busyTail summarizes how a pool of workers spent the execute phase
// [begin, end] that ran the given cells. busyFrac is the summed cell
// time over workers × phase length. tail is the time from the first
// worker going idle for good to the last cell finishing. The pool
// drains a pre-filled queue, so once one worker finds the queue empty
// no later cell can start: each worker's final cell therefore ends no
// earlier than any other worker's non-final cell, the workers' final
// ends are the `workers` latest ends, and the first idle moment is the
// earliest of those.
func busyTail(cells []span, workers int, begin, end time.Duration) (busyFrac float64, tail time.Duration) {
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 || end <= begin {
		return 0, 0
	}
	var busy time.Duration
	ends := make([]time.Duration, len(cells))
	for i, c := range cells {
		busy += c.end - c.start
		ends[i] = c.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
	busyFrac = float64(busy) / (float64(workers) * float64(end-begin))
	return busyFrac, ends[0] - ends[workers-1]
}

// runOutcome is one run of the program as the failure count sees it:
// how many cells it attempted and whether it passed the benchmark's
// correctness checks. A failed cell fails the run's checks (the
// program exits 1 with a failure report), so a run's cells fail
// together.
type runOutcome struct {
	cells   int
	correct bool
}

// failCount totals attempted and failed cells over runs. A run that
// fails a correctness check counts all of its cells as failed.
func failCount(runs []runOutcome) (attempted, failed int) {
	for _, r := range runs {
		attempted += r.cells
		if !r.correct {
			failed += r.cells
		}
	}
	return attempted, failed
}

// failFrac is failed ÷ attempted over runs (0 when nothing ran).
func failFrac(runs []runOutcome) float64 {
	attempted, failed := failCount(runs)
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// nominalInstr is the simulated instruction count a plan nominally
// executes: every cell runs warmup + measured instructions on each
// core. Cores that finish their quantum early keep running, so the
// executed count is somewhat higher; the nominal count is what makes
// the rate comparable across commits.
func nominalInstr(cells, cores, warmup int, instr uint64) float64 {
	return float64(cells) * float64(cores) * (float64(warmup) + float64(instr))
}
