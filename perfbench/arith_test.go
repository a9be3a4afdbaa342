package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The tail percentile is the highest one with at least ten samples
// beyond it; below twenty samples it falls back to the median.
func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {16, 50}, {19, 50}, {20, 50}, {35, 50}, {39, 50},
		{40, 75}, {51, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v := highPercentile(xs)
		if p != tc.want {
			t.Errorf("n=%d: percentile p%v, want p%v", tc.n, p, tc.want)
		}
		if beyond := countAbove(xs, v); tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", tc.n, p, v, beyond)
		}
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms2d(m float64) time.Duration { return time.Duration(m * float64(time.Millisecond)) }

func TestBusyTailTwoWorkers(t *testing.T) {
	// Worker A runs one long cell; worker B runs three short ones and
	// goes idle at 9 ms, one millisecond before A finishes.
	cells := []span{
		{ms2d(0), ms2d(10)},
		{ms2d(0), ms2d(3)}, {ms2d(3), ms2d(6)}, {ms2d(6), ms2d(9)},
	}
	busy, tail := busyTail(cells, 2, 0, ms2d(10))
	if math.Abs(busy-0.95) > 1e-9 {
		t.Errorf("busy_frac = %v, want 0.95 (19 ms of cells over 2 workers x 10 ms)", busy)
	}
	if tail != ms2d(1) {
		t.Errorf("tail = %v, want 1ms", tail)
	}
}

func TestBusyTailSequential(t *testing.T) {
	cells := []span{{ms2d(1), ms2d(4)}, {ms2d(4), ms2d(9)}}
	busy, tail := busyTail(cells, 1, ms2d(1), ms2d(9))
	if busy != 1 || tail != 0 {
		t.Errorf("sequential: busy_frac %v tail %v, want 1 and 0", busy, tail)
	}
}

func TestBusyTailMoreWorkersThanCells(t *testing.T) {
	busy, tail := busyTail([]span{{0, ms2d(5)}}, 2, 0, ms2d(5))
	if busy != 1 || tail != 0 {
		t.Errorf("one cell on two workers: busy_frac %v tail %v, want 1 and 0 (one worker ever runs)", busy, tail)
	}
	if busy, tail := busyTail(nil, 2, 0, ms2d(5)); busy != 0 || tail != 0 {
		t.Errorf("no cells: busy_frac %v tail %v, want 0 and 0", busy, tail)
	}
}

// A run with one failed cell fails its checks, so all of its cells
// count as failed; the other runs' cells still count as attempted.
func TestFailFracOneFailedCell(t *testing.T) {
	runs := []runOutcome{
		{cells: 10, correct: true},  // golden
		{cells: 51, correct: true},  // reference sweep
		{cells: 35, correct: false}, // one cell failed: exit 1, failure report
		{cells: 35, correct: true},
	}
	attempted, failed := failCount(runs)
	if attempted != 131 || failed != 35 {
		t.Errorf("failCount = %d attempted, %d failed; want 131, 35", attempted, failed)
	}
	if got, want := failFrac(runs), 35.0/131; math.Abs(got-want) > 1e-12 {
		t.Errorf("failFrac = %v, want %v", got, want)
	}
	if got := failFrac(nil); got != 0 {
		t.Errorf("failFrac(nil) = %v, want 0", got)
	}
}

func TestNominalInstr(t *testing.T) {
	// mt-figs: 35 cells x 4 cores x (200k warm-up + 200k measured).
	if got := nominalInstr(35, 4, 200_000, 200_000); got != 56e6 {
		t.Errorf("nominalInstr = %v, want 5.6e7", got)
	}
	if got := nominalInstr(51, 4, 0, 1); got != 204 {
		t.Errorf("nominalInstr without warm-up = %v, want 204", got)
	}
}

func TestCallStatEstimate(t *testing.T) {
	c := callStat{calls: 160, sampled: 10, sampledTime: 10 * 150 * time.Nanosecond}
	// 150 ns per timed call, 50 ns of it the clock: 100 ns x 160 calls.
	if got := c.estimate(50 * time.Nanosecond); got != 16*time.Microsecond {
		t.Errorf("estimate = %v, want 16µs", got)
	}
	if got := (callStat{calls: 5}).estimate(0); got != 0 {
		t.Errorf("estimate without samples = %v, want 0", got)
	}
}
