package l2

import (
	"fmt"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// privPayload is a private-cache line's coherence state plus the
// block-lifetime bookkeeping behind Figure 7.
type privPayload struct {
	state     coherence.State
	broughtBy memsys.Category
	reuses    int32
}

// snoopy is the machine both private designs share: four per-core
// caches snooping a split-transaction bus. Every fill replicates into
// the requester's cache (uncontrolled replication); the protocols
// differ only in what a write does to the other copies.
type snoopy struct {
	caches     []*cache.Array[privPayload]
	ports      []bus.Port
	bus        *bus.Bus
	hitLatency memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
	// Writebacks counts dirty evictions and flushes reaching memory.
	Writebacks uint64
}

// paperSnoopy is the paper's configuration: 2 MB 8-way per core,
// 10-cycle hit (Table 1), 32-cycle bus, 300-cycle memory.
func paperSnoopy() snoopy {
	l := topo.Derive()
	return newSnoopy(topo.PrivateBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.PrivateTotal, bus.Config{Latency: l.Bus, SlotCycles: 4}, 300)
}

func newSnoopy(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) snoopy {
	s := snoopy{
		ports:      make([]bus.Port, topo.NumCores),
		bus:        bus.New(busCfg),
		hitLatency: hitLatency,
		memLatency: memLatency,
		stats:      memsys.NewL2Stats(),
	}
	for c := 0; c < topo.NumCores; c++ {
		s.caches = append(s.caches, cache.NewArray[privPayload](
			cache.GeometryFor(capacityBytes, ways, blockBytes)))
	}
	return s
}

// Stats implements memsys.L2.
func (p *snoopy) Stats() *memsys.L2Stats { return p.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (p *snoopy) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { p.l1inv = fn }

// MaintainsL1Coherence implements memsys.L1Coherent: both protocols
// drop the L1 copies their snoops invalidate, downgrade or update.
func (p *snoopy) MaintainsL1Coherence() {}

// Bus exposes the snoopy bus for traffic analysis.
func (p *snoopy) Bus() *bus.Bus { return p.bus }

// StateOf reports core's coherence state for addr (exposed for tests).
func (p *snoopy) StateOf(core int, addr memsys.Addr) coherence.State {
	l := p.caches[core].Probe(addr.BlockAddr(p.blockBytes()))
	if l == nil {
		return coherence.Invalid
	}
	return l.Data.state
}

// LineState implements memsys.LineStateProber for stall diagnostics.
func (p *snoopy) LineState(core int, addr memsys.Addr) string {
	return p.StateOf(core, addr).String()
}

// BusBacklog implements memsys.BusBacklogReporter.
func (p *snoopy) BusBacklog(now memsys.Cycle) memsys.Cycles { return p.bus.Backlog(now) }

func (p *snoopy) blockBytes() memsys.Bytes { return p.caches[0].Geometry().BlockBytes }

// kill invalidates core's line, recording its lifetime, writing a dirty
// copy back and preserving L1 inclusion.
func (p *snoopy) kill(core int, l *cache.Line[privPayload]) {
	addr := p.caches[core].AddrOf(l)
	switch l.Data.broughtBy {
	case memsys.ROSMiss:
		p.stats.ReuseROS.Record(int(l.Data.reuses))
	case memsys.RWSMiss:
		p.stats.ReuseRWS.Record(int(l.Data.reuses))
	case memsys.Hit, memsys.CapacityMiss:
		// Figure 7 follows only blocks a sharing miss brought in.
	}
	if l.Data.state.Dirty() {
		p.Writebacks++
	}
	p.caches[core].Invalidate(l)
	if p.l1inv != nil {
		p.l1inv(core, addr)
	}
}

// signals samples the wired-OR bus lines from the caches other than
// core's and returns the lowest such core holding addr, or -1.
func (p *snoopy) signals(core int, addr memsys.Addr) (sig coherence.Signals, first int) {
	first = -1
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if l := p.caches[o].Probe(addr); l != nil {
			if first < 0 {
				first = o
			}
			if l.Data.state.Dirty() {
				sig.Dirty = true
			} else {
				sig.Shared = true
			}
		}
	}
	return sig, first
}

// fill completes core's snooped miss: the bus transaction, the
// supplier's cache-to-cache transfer (memory when supplier is -1), the
// victim's kill and the install in state. sig, the peer scan taken
// before the snoop, classifies the miss by the paper's taxonomy.
func (p *snoopy) fill(now memsys.Cycle, core int, addr memsys.Addr, lat memsys.Cycles, kind bus.Kind, supplier int, sig coherence.Signals, state coherence.State) memsys.Result {
	category := memsys.CapacityMiss
	if sig.Dirty {
		category = memsys.RWSMiss
	} else if sig.Shared {
		category = memsys.ROSMiss
	}
	t := now.Add(lat)
	vis := p.bus.Transact(t, kind)
	p.stats.BusTransactions.AddAt(int(kind), 1)
	lat += vis.Sub(t)
	t = now.Add(lat)
	if supplier >= 0 {
		// Cache-to-cache transfer: the supplier's access time.
		remStart := p.ports[supplier].Acquire(t, p.hitLatency)
		lat += remStart.Sub(t) + p.hitLatency
	} else {
		p.stats.OffChipMisses++
		lat += p.memLatency
	}

	arr := p.caches[core]
	v := arr.Victim(addr)
	if v.Valid() {
		p.kill(core, v)
	}
	arr.Install(v, addr, privPayload{state: state, broughtBy: category})

	res := memsys.Result{Latency: lat, Category: category, DGroup: -1}
	p.stats.RecordAccess(res)
	return res
}

// CheckInvariants validates the single-owner rules both protocols keep
// across the private caches: at most one M, E or C copy of a block, and
// an M or E copy is the only copy. Tests call it after workloads.
func (p *snoopy) CheckInvariants() {
	type counts struct {
		copies, owners int
		exclusive      bool
	}
	blocks := map[memsys.Addr]counts{}
	for c := 0; c < topo.NumCores; c++ {
		p.caches[c].ForEach(func(_ int, l *cache.Line[privPayload]) {
			addr := p.caches[c].AddrOf(l)
			b := blocks[addr]
			b.copies++
			switch l.Data.state {
			case coherence.Modified, coherence.Exclusive:
				b.owners++
				b.exclusive = true
			case coherence.Communication:
				b.owners++
			case coherence.Shared:
			default:
				panic("l2: private line in invalid coherence state")
			}
			blocks[addr] = b
		})
	}
	for addr, b := range blocks {
		if b.owners > 1 {
			panic(fmt.Sprintf("l2: block %#x has %d owners", addr, b.owners))
		}
		if b.exclusive && b.copies > 1 {
			panic(fmt.Sprintf("l2: block %#x owner coexists with sharers", addr))
		}
	}
}

// Private models the per-core private cache baseline under MESI: four
// 2 MB 8-way snoopy caches whose uncontrolled replication and
// read-write-sharing ping-pong are the two behaviours CR and ISC exist
// to fix.
type Private struct{ snoopy }

// NewPrivate builds the paper's configuration.
func NewPrivate() *Private { return &Private{paperSnoopy()} }

// NewPrivateWith builds private caches with explicit geometry/timing.
func NewPrivateWith(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) *Private {
	return &Private{newSnoopy(capacityBytes, ways, blockBytes, hitLatency, busCfg, memLatency)}
}

// Name implements memsys.L2.
func (p *Private) Name() string { return "private" }

// snoopOthers applies a bus transaction from core to every other cache
// per MESI and returns the core that supplied the block, or -1. A
// cache holding the block in S does not flush under basic MESI, but
// being on-chip it still supplies the data more cheaply than memory;
// we return it as the supplier without a Flush transaction.
func (p *Private) snoopOthers(core int, addr memsys.Addr, op coherence.BusOp) (supplier int) {
	supplier = -1
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		l := p.caches[o].Probe(addr)
		if l == nil {
			continue
		}
		next, act := coherence.MESISnoop(l.Data.state, op)
		switch act {
		case coherence.Flush:
			supplier = o
			p.Writebacks++ // MESI flush updates memory
			p.stats.BusTransactions.AddAt(int(bus.Flush), 1)
		case coherence.FlushClean:
			supplier = o
			p.stats.BusTransactions.AddAt(int(bus.Flush), 1)
		case coherence.None:
			if supplier < 0 && l.Data.state == coherence.Shared && op != coherence.BusUpg {
				supplier = o
			}
		default: // InvalidateL1 is MESIC-only; MESISnoop never returns it
			panic("l2: MESI snoop returned action " + act.String())
		}
		if next == coherence.Invalid {
			p.kill(o, l)
		} else {
			if next != l.Data.state && p.l1inv != nil {
				// Downgrade (M→S, E→S): the holder's L1 copy may be
				// dirty; drop it so a later local store cannot be
				// absorbed by a stale-exclusive L1 line.
				p.l1inv(o, addr)
			}
			l.Data.state = next
		}
	}
	return supplier
}

// Access implements memsys.L2.
//
// hotpath:root
func (p *Private) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(p.blockBytes())
	arr := p.caches[core]
	start := p.ports[core].Acquire(now, p.hitLatency)
	lat := start.Sub(now) + p.hitLatency

	if l := arr.Probe(addr); l != nil {
		arr.Touch(l)
		l.Data.reuses++
		op := coherence.PrRd
		if write {
			op = coherence.PrWr
		}
		next, busOp := coherence.MESIProc(l.Data.state, op, coherence.Signals{})
		if busOp != coherence.BusNone {
			// S→M upgrade: the bus transaction is on the critical path.
			t := now.Add(lat)
			vis := p.bus.Transact(t, bus.BusUpg)
			p.stats.BusTransactions.AddAt(int(bus.BusUpg), 1)
			lat += vis.Sub(t)
			p.snoopOthers(core, addr, coherence.BusUpg)
		}
		l.Data.state = next
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: -1}
		p.stats.RecordAccess(res)
		return res
	}

	// Miss: snoop the other caches per MESI, then fill.
	sig, _ := p.signals(core, addr)
	op, kind, busOp := coherence.PrRd, bus.BusRd, coherence.BusRd
	if write {
		op, kind, busOp = coherence.PrWr, bus.BusRdX, coherence.BusRdX
	}
	supplier := p.snoopOthers(core, addr, busOp)
	state, _ := coherence.MESIProc(coherence.Invalid, op, sig)
	return p.fill(now, core, addr, lat, kind, supplier, sig, state)
}

// PrivateUpdate models private caches under an update-based protocol
// (Dragon-style), the alternative §3.2 argues against: "It may seem
// that private caches can avoid coherence misses in read-write sharing
// by using an update protocol ... However, an update protocol requires
// the updates to go through the bus for copying the data to the
// reader's caches, incurring an overhead on every write. Furthermore,
// update protocols keep multiple copies of the read-write shared
// block," recreating uncontrolled replication's capacity problem.
//
// Writes never invalidate: a store to a block with remote copies
// broadcasts a BusUpd (full bus latency on the writer's critical path)
// that freshens the sharers' L2 copies in place; their L1 copies drop
// and refill from their own updated L2 copy at private-hit cost — no
// coherence misses, exactly the property the protocol buys, at exactly
// the costs the paper names. A lone copy is E or M; once shared, the
// copies are S, and the last writer's is C, the dirty owner that
// writes the block back.
type PrivateUpdate struct {
	snoopy
	// Updates counts write-triggered bus update broadcasts.
	Updates uint64
}

// NewPrivateUpdate builds the update-protocol baseline at the paper's
// private-cache geometry.
func NewPrivateUpdate() *PrivateUpdate { return &PrivateUpdate{snoopy: paperSnoopy()} }

// NewPrivateUpdateWith builds the baseline with explicit geometry.
func NewPrivateUpdateWith(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) *PrivateUpdate {
	return &PrivateUpdate{snoopy: newSnoopy(capacityBytes, ways, blockBytes, hitLatency, busCfg, memLatency)}
}

// Name implements memsys.L2.
func (p *PrivateUpdate) Name() string { return "private-update" }

// IsCommunication implements cmpsim's write-through hook: update
// protocols must see *every* store to a shared block at the L2 (each
// one broadcasts), so shared blocks are write-through in the L1 — the
// same discipline MESIC's C blocks need, and the per-write overhead
// §3.2 charges update protocols with.
func (p *PrivateUpdate) IsCommunication(core int, addr memsys.Addr) bool {
	addr = addr.BlockAddr(p.blockBytes())
	if p.caches[core].Probe(addr) == nil {
		return false
	}
	_, first := p.signals(core, addr)
	return first >= 0
}

// update applies core's fill or write of addr to the other copies. A
// write broadcasts a BusUpd: every other copy freshens in place to a
// clean S and drops its L1 copy, leaving core the dirty owner. A read
// fill only ends the holder's exclusivity (E→S, M→C).
func (p *PrivateUpdate) update(core int, addr memsys.Addr, write bool) {
	if write {
		p.Updates++
		p.stats.BusTransactions.AddAt(int(bus.BusUpg), 1)
	}
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		l := p.caches[o].Probe(addr)
		switch {
		case l == nil:
		case write:
			l.Data.state = coherence.Shared
			if p.l1inv != nil {
				p.l1inv(o, addr)
			}
		case l.Data.state == coherence.Exclusive:
			l.Data.state = coherence.Shared
		case l.Data.state == coherence.Modified:
			l.Data.state = coherence.Communication
		}
	}
}

// Access implements memsys.L2.
//
// hotpath:root
func (p *PrivateUpdate) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(p.blockBytes())
	arr := p.caches[core]
	start := p.ports[core].Acquire(now, p.hitLatency)
	lat := start.Sub(now) + p.hitLatency

	if l := arr.Probe(addr); l != nil {
		arr.Touch(l)
		l.Data.reuses++
		if write {
			state := coherence.Modified
			if _, first := p.signals(core, addr); first >= 0 {
				// The update goes through the bus on every write —
				// the overhead the paper charges this protocol with.
				t := now.Add(lat)
				vis := p.bus.Transact(t, bus.BusUpg)
				lat += vis.Sub(t)
				p.update(core, addr, true)
				state = coherence.Communication
			}
			l.Data.state = state
		}
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: -1}
		p.stats.RecordAccess(res)
		return res
	}

	// Miss: copy from the lowest-numbered holder, invalidating nothing.
	sig, first := p.signals(core, addr)
	state := coherence.Exclusive
	switch {
	case first >= 0 && write:
		state = coherence.Communication
	case first >= 0:
		state = coherence.Shared
	case write:
		state = coherence.Modified
	}
	res := p.fill(now, core, addr, lat, bus.BusRd, first, sig, state)
	if first >= 0 {
		// After fill: the writer's own victim drops its L1 copy first.
		p.update(core, addr, write)
	}
	return res
}
