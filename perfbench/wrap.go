package main

import (
	"fmt"
	"time"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
)

// The traced run puts these wrappers between cmpsim and the two
// interfaces it calls on every step: cmpsim.Workload (the workload
// layer) and memsys.L2 (the L2 designs, which run the bus and stats
// layers inside Access). A wrapper forwards every call unchanged and
// counts it. Reading the host clock costs tens of nanoseconds, about
// as much as one call, so only one call in sampleEvery is timed and
// the boundary's total is estimated from that sample (callStat).

// sampleEvery is the timing sample period of the per-call boundaries.
const sampleEvery = 16

// callStat counts the calls across one boundary and times a sample of
// them.
type callStat struct {
	calls       uint64
	sampled     uint64
	sampledTime time.Duration
}

// add accumulates another boundary's counts.
func (c *callStat) add(o callStat) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.sampledTime += o.sampledTime
}

// estimate returns the estimated host time spent inside all calls:
// the mean timed call, less the cost of the clock read the timing
// itself adds, times the call count.
func (c callStat) estimate(clockCost time.Duration) time.Duration {
	if c.sampled == 0 {
		return 0
	}
	per := float64(c.sampledTime-time.Duration(c.sampled)*clockCost) / float64(c.sampled)
	if per < 0 {
		per = 0
	}
	return time.Duration(per * float64(c.calls))
}

// tracedWorkload wraps a workload's stream.
type tracedWorkload struct {
	inner cmpsim.Workload
	next  callStat
}

func (w *tracedWorkload) Next(core int) cmpsim.Op {
	w.next.calls++
	if w.next.calls%sampleEvery != 0 {
		return w.inner.Next(core)
	}
	t0 := time.Now()
	op := w.inner.Next(core)
	w.next.sampledTime += time.Since(t0)
	w.next.sampled++
	return op
}

func (w *tracedWorkload) Name() string { return w.inner.Name() }

// tracedL2 wraps the memsys.L2 methods every design has. cmpsim
// type-asserts five optional interfaces on the design it is given, and
// implementing one the design lacks (or hiding one it has) changes the
// simulation — a wrapper that claimed memsys.L1Coherent for a shared
// design would switch off cmpsim's L1 directory. So tracedL2 is never
// handed to cmpsim alone: wrapL2 embeds it in the composite below that
// carries exactly the design's optional interfaces.
type tracedL2 struct {
	inner  memsys.L2
	access callStat
	iscomm callStat
}

func (t *tracedL2) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	t.access.calls++
	if t.access.calls%sampleEvery != 0 {
		return t.inner.Access(now, core, addr, write)
	}
	t0 := time.Now()
	r := t.inner.Access(now, core, addr, write)
	t.access.sampledTime += time.Since(t0)
	t.access.sampled++
	return r
}

func (t *tracedL2) Name() string           { return t.inner.Name() }
func (t *tracedL2) Stats() *memsys.L2Stats { return t.inner.Stats() }

// One forwarding type per optional interface.

type fwdInvalidator struct{ inv memsys.L1Invalidator }

func (f fwdInvalidator) SetL1Invalidate(fn func(core int, addr memsys.Addr)) {
	f.inv.SetL1Invalidate(fn)
}

type fwdCoherent struct{ coh memsys.L1Coherent }

func (f fwdCoherent) MaintainsL1Coherence() { f.coh.MaintainsL1Coherence() }

type fwdLineState struct{ prober memsys.LineStateProber }

func (f fwdLineState) LineState(core int, addr memsys.Addr) string {
	return f.prober.LineState(core, addr)
}

type fwdBacklog struct{ rep memsys.BusBacklogReporter }

func (f fwdBacklog) BusBacklog(now memsys.Cycle) memsys.Cycles { return f.rep.BusBacklog(now) }

// timedComm forwards cmpsim.CommunicationProber, counting and sampling
// the calls into the owning tracedL2's iscomm stat.
type timedComm struct {
	comm cmpsim.CommunicationProber
	stat *callStat
}

func (f timedComm) IsCommunication(core int, addr memsys.Addr) bool {
	f.stat.calls++
	if f.stat.calls%sampleEvery != 0 {
		return f.comm.IsCommunication(core, addr)
	}
	t0 := time.Now()
	ok := f.comm.IsCommunication(core, addr)
	f.stat.sampledTime += time.Since(t0)
	f.stat.sampled++
	return ok
}

// The designs implement one of three optional-interface sets.

// sharedL2 wraps the shared designs (uniform-shared, ideal, SNUCA,
// DNUCA): cmpsim keeps their L1s coherent with its own directory.
type sharedL2 struct {
	*tracedL2
	fwdInvalidator
	fwdLineState
}

// snoopyL2 wraps the private MESI design.
type snoopyL2 struct {
	*tracedL2
	fwdInvalidator
	fwdCoherent
	fwdLineState
	fwdBacklog
}

// commL2 wraps the designs with write-through communication blocks
// (the CMP-NuRAPID variants and private-update).
type commL2 struct {
	snoopyL2
	timedComm
}

// ifaceSet is a bit set of the optional interfaces cmpsim looks for.
type ifaceSet uint8

const (
	hasInvalidator ifaceSet = 1 << iota
	hasCoherent
	hasLineState
	hasBacklog
	hasComm
)

const (
	sharedSet = hasInvalidator | hasLineState
	snoopySet = hasInvalidator | hasCoherent | hasLineState | hasBacklog
	commSet   = snoopySet | hasComm
)

// optionalIfaces returns the optional interfaces v implements.
func optionalIfaces(v any) ifaceSet {
	var s ifaceSet
	if _, ok := v.(memsys.L1Invalidator); ok {
		s |= hasInvalidator
	}
	if _, ok := v.(memsys.L1Coherent); ok {
		s |= hasCoherent
	}
	if _, ok := v.(memsys.LineStateProber); ok {
		s |= hasLineState
	}
	if _, ok := v.(memsys.BusBacklogReporter); ok {
		s |= hasBacklog
	}
	if _, ok := v.(cmpsim.CommunicationProber); ok {
		s |= hasComm
	}
	return s
}

// wrapL2 returns the traced wrapper for design d, which implements
// exactly d's optional interfaces, and its counters. A design with a
// set no wrapper matches is a bug in this file, not something to
// approximate.
func wrapL2(d memsys.L2) (memsys.L2, *tracedL2) {
	t := &tracedL2{inner: d}
	switch set := optionalIfaces(d); set {
	case sharedSet:
		return &sharedL2{t, fwdInvalidator{d.(memsys.L1Invalidator)}, fwdLineState{d.(memsys.LineStateProber)}}, t
	case snoopySet, commSet:
		s := snoopyL2{t,
			fwdInvalidator{d.(memsys.L1Invalidator)}, fwdCoherent{d.(memsys.L1Coherent)},
			fwdLineState{d.(memsys.LineStateProber)}, fwdBacklog{d.(memsys.BusBacklogReporter)}}
		if set == snoopySet {
			return &s, t
		}
		return &commL2{s, timedComm{d.(cmpsim.CommunicationProber), &t.iscomm}}, t
	default:
		panic(fmt.Sprintf("perfbench: no transparent wrapper for design %s (optional interface set %05b)", d.Name(), set))
	}
}
