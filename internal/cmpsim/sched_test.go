package cmpsim

import (
	"reflect"
	"testing"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/simguard"
)

// lockstepWorkload keeps every core clock-equal forever: identical
// one-cycle compute ops, no memory. Every scheduler pick is therefore
// a clock tie, which makes it the sharpest probe of the tie-break rule
// — any deviation from lowest-core-index-first shows up immediately.
type lockstepWorkload struct{}

func (lockstepWorkload) Next(core int) Op { return Op{Compute: 1, NoMem: true} }
func (lockstepWorkload) Name() string     { return "lockstep" }

// TestSchedulerTieBreakPinned pins the tie-break contract on a
// workload where every pick is a tie: runUntil must step cores in
// strict round-robin order, lowest index first. A scan comparison that
// lets a later core win a tie (`<=` for `<`) reverses the order and
// fails here.
func TestSchedulerTieBreakPinned(t *testing.T) {
	sys := New(smallCfg(), sharedL2(), lockstepWorkload{})
	var trace []int
	sys.onStep = func(core int) { trace = append(trace, core) }
	sys.Run(8)

	if len(trace) != 32 {
		t.Fatalf("trace has %d steps, want 32 (8 instructions x 4 cores)", len(trace))
	}
	for i, c := range trace {
		if c != i%4 {
			t.Fatalf("step %d ran core %d, want strict round-robin (core %d): %v", i, c, i%4, trace)
		}
	}
}

// missStream makes every reference a fresh L1-busting miss, so each
// instruction costs hundreds of cycles and a short warmup consumes a
// precisely large number of cycles.
type missStream struct {
	n [8]uint64
}

func (w *missStream) Name() string { return "miss-stream" }
func (w *missStream) Next(core int) Op {
	w.n[core]++
	return Op{Addr: memsys.Addr(0x100000*uint64(core+1) + w.n[core]*4096)}
}

// TestExplicitCeilingIsPhaseRelative is the regression test for the
// cycle-ceiling anchoring bug: an earlier loop anchored an explicit
// MaxCycles at absolute cycle 0, so after a warmup that consumed more
// cycles than the budget, a healthy measurement run tripped the
// ceiling on its very first step. The budget must instead anchor at
// the Run phase's starting clock, and warmup must not consume it.
func TestExplicitCeilingIsPhaseRelative(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxCycles = memsys.CyclesOf(10_000)
	sys := New(cfg, sharedL2(), &missStream{})

	// 100 cold misses per core at ~360 cycles each: warmup consumes
	// several times MaxCycles. Under the old absolute anchoring the
	// following Run panicked immediately; it must complete.
	sys.Warmup(100)
	if clk := sys.maxCycle(); clk.Sub(0) <= cfg.MaxCycles {
		t.Fatalf("warmup consumed only %d cycles; the test needs more than MaxCycles=%d to bite",
			clk.Sub(0), cfg.MaxCycles)
	}
	r := sys.Run(5)
	if r.Instructions == 0 || r.Cycles <= 0 {
		t.Fatalf("post-warmup run under a phase-relative ceiling recorded nothing: %+v", r)
	}
	if r.Cycles > cfg.MaxCycles {
		t.Fatalf("run consumed %d cycles, above the %d budget — the ceiling should have fired", r.Cycles, cfg.MaxCycles)
	}

	// The budget still binds the measurement phase itself: a Run whose
	// quantum cannot fit must abort, and the reported limit must be
	// anchored at the phase start, not at cycle 0. (The warmup resets
	// the previous run's quantum snapshots.)
	sys.Warmup(10)
	start := sys.maxCycle()
	defer func() {
		lim, ok := recover().(*simguard.CycleLimitExceeded)
		if !ok {
			t.Fatal("oversized run under a tight ceiling did not abort")
		}
		if lim.Derived {
			t.Error("explicit MaxCycles reported as derived")
		}
		if lim.Limit != start.Add(cfg.MaxCycles) {
			t.Errorf("limit %d not anchored at phase start %d + budget %d", uint64(lim.Limit), uint64(start), cfg.MaxCycles)
		}
	}()
	sys.Run(1_000_000)
}

// TestCycleCeilingIsInclusive pins the ceiling's boundary: the check
// fires only when the laggard's pre-step clock passes the limit, so a
// phase whose last step starts exactly at the limit completes. On the
// lockstep workload Run(8) takes its last steps at clock 7.
func TestCycleCeilingIsInclusive(t *testing.T) {
	run := func(budget int) (aborted bool) {
		cfg := smallCfg()
		cfg.MaxCycles = memsys.CyclesOf(budget)
		sys := New(cfg, sharedL2(), lockstepWorkload{})
		defer func() {
			_, aborted = recover().(*simguard.CycleLimitExceeded)
		}()
		sys.Run(8)
		return false
	}
	if run(7) {
		t.Error("run whose last step starts at the limit aborted")
	}
	if !run(6) {
		t.Error("run whose last step starts past the limit completed")
	}
}

// TestWatchdogTripPinned pins the watchdog's detection point — it
// observes the laggard's pre-step clock — on a partial livelock: every
// core serves 20 scripted misses, then spins on zero-work ops. The
// abort must land at the recorded step count and clock, with the
// recorded per-core snapshot.
func TestWatchdogTripPinned(t *testing.T) {
	ops := make([][]Op, 4)
	for c := range ops {
		for i := 0; i < 20; i++ {
			ops[c] = append(ops[c], Op{Addr: memsys.Addr(0x10000*(c+1) + i*4096), Write: i%3 == 0})
		}
	}
	cfg := smallCfg()
	cfg.StallWindow = memsys.CyclesOf(256)
	sys := New(cfg, sharedL2(), &partialLivelock{script: newScripted(ops), healthy: 20})
	defer func() {
		stall, ok := recover().(*simguard.ProgressStall)
		if !ok {
			t.Fatal("partial livelock did not trip the watchdog")
		}
		if stall.Steps != 1 || stall.Now != 7240 {
			t.Errorf("detection point (steps=%d now=%d), want (steps=1 now=7240)", stall.Steps, uint64(stall.Now))
		}
		var want []simguard.CoreSnapshot
		for c := 0; c < 4; c++ {
			want = append(want, simguard.CoreSnapshot{
				Core: c, Cycles: 7240, Instructions: 20,
				OutstandingMiss: true, Addr: memsys.Addr(0x23000 + 0x10000*c),
				LineState: "resident",
			})
		}
		if !reflect.DeepEqual(stall.Cores, want) {
			t.Errorf("stall snapshot:\n got %+v\nwant %+v", stall.Cores, want)
		}
	}()
	sys.Run(1_000_000)
}

// TestRunZeroQuantumNeedsNoSteps pins the phase-start completion scan:
// a Run whose quantum is already satisfied must snapshot every core
// and execute zero scheduler steps, exactly like the historical
// done()-before-first-step loop.
func TestRunZeroQuantumNeedsNoSteps(t *testing.T) {
	sys := New(smallCfg(), sharedL2(), lockstepWorkload{})
	steps := 0
	sys.onStep = func(int) { steps++ }
	r := sys.Run(0)
	if steps != 0 {
		t.Errorf("Run(0) executed %d steps, want 0", steps)
	}
	if len(r.Cores) != 4 || r.Instructions != 0 {
		t.Errorf("Run(0) results: %+v", r)
	}
}
