// Package simguard is the simulator's robustness layer: a
// forward-progress watchdog, structured stall/limit diagnostics, and
// deterministic seeded fault injectors.
//
// The reproduction's claims rest on dozens of independent (design,
// workload) simulations. Before this package, a single livelocked or
// panicking cell either spun forever or killed the whole experiment
// run with nothing to show for the cells that were healthy. simguard
// follows the chaos-testing discipline of large-scale simulator stacks
// (FoundationDB-style deterministic fault injection; gem5's
// forward-progress assertions):
//
//   - The Watchdog detects livelock — no core retiring an instruction
//     for a configured window — and cmpsim.System aborts with a
//     *ProgressStall carrying per-core architectural state, the
//     outstanding memory reference, bus arbitration backlog, and the
//     coherence states of the stalled lines.
//   - A hard cycle ceiling (cmpsim.Config.MaxCycles, derived from the
//     instruction budget when unset) bounds every phase even if the
//     watchdog itself is buggy, aborting with a *CycleLimitExceeded.
//   - Fault injectors (inject.go) perturb bus arbitration and L2
//     latency from internal/rng seeds, so every chaos run reproduces
//     bit-identically from its seed; adversarial workload profiles
//     live in internal/workload (Adversarial, LivelockMutant).
//   - The experiment scheduler (internal/experiments) recovers cell
//     panics and watchdog aborts into CellFailures, keeps running the
//     remaining cells, and cmd/experiments renders failed experiments
//     as ERR with a failure report after the tables.
//
// See docs/ROBUSTNESS.md for the watchdog semantics, the injector
// catalog, the failure-report format and the reproduction recipe.
package simguard

import "cmpnurapid/internal/memsys"

// DefaultStallWindow is the forward-progress window used when a
// configuration does not set one: if no core retires an instruction
// for this many cycles — or this many scheduler steps, for livelocks
// that stop the clock entirely — the run aborts. At CPI 1 the slowest
// legitimate instruction in the modelled hierarchy costs well under
// 10^3 cycles, so a million-cycle window has zero false-positive
// margin while still firing in well under a second of host time.
const DefaultStallWindow memsys.Cycles = 1 << 20

// Watchdog detects forward-progress stalls. The simulator feeds it one
// Observe call per scheduler step with the laggard core's clock and
// the number of instructions that step retired; the watchdog trips
// when a full window passes with no retirement.
//
// Two clocks guard the window because livelocks come in two shapes:
// a run whose cycle clock advances without retiring (spinning on
// resource reservations) trips the cycle check, and a run whose clock
// stops entirely (zero-work ops forever — the clock only moves when
// work is done) trips the step check, which the cycle check could
// never see.
type Watchdog struct {
	window memsys.Cycles
	// lastRetire is the laggard clock at the last observed retirement.
	lastRetire memsys.Cycle
	// steps counts Observe calls since the last retirement.
	steps uint64
	armed bool
}

// NewWatchdog returns a watchdog with the given window; window <= 0
// selects DefaultStallWindow.
//
// hotpath:alloc one watchdog allocation per run phase, not per cycle
func NewWatchdog(window memsys.Cycles) *Watchdog {
	if window <= 0 {
		window = DefaultStallWindow
	}
	return &Watchdog{window: window}
}

// Window returns the configured stall window.
func (w *Watchdog) Window() memsys.Cycles { return w.window }

// StepsSinceRetire returns how many scheduler steps have run since the
// last observed instruction retirement.
func (w *Watchdog) StepsSinceRetire() uint64 { return w.steps }

// Observe records one scheduler step: now is the laggard core's clock,
// retired the instructions that step completed. It reports whether the
// run is stalled — a full window of cycles or steps without a single
// retirement.
//
// Observation-point contract: now is the clock the scheduler picked —
// the laggard's pre-step clock, before the step's latency is charged.
// cmpsim's TestWatchdogTripPinned pins the trip step, clock and core
// snapshot on a partial livelock, and the chaos sweep re-proves both
// window clauses (cycle-based and step-based) against the livelock
// mutant. Pre-step observation is also the tight
// choice: anchoring lastRetire at the clock a retiring step *started*
// means a following dead window is measured from the last instant
// useful work was initiated, not from after its (possibly long)
// latency had already been charged.
func (w *Watchdog) Observe(now memsys.Cycle, retired uint64) (stalled bool) {
	if !w.armed || retired > 0 {
		w.armed = true
		w.lastRetire = now
		w.steps = 0
		return false
	}
	w.steps++
	return now.Sub(w.lastRetire) > w.window || w.steps > uint64(w.window)
}
