package l2

import (
	"fmt"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// SNUCA is the non-uniform-shared baseline, modelling CMP-SNUCA from
// [6] (similar to Piranha's banked shared cache [4]): the address space
// is statically interleaved across banks, each bank has a distinct
// latency from each core, and — the property that distinguishes it from
// CMP-NuRAPID — there is no replication and no migration, so a shared
// block sits in whichever bank its address hashes to, equidistant from
// nobody in particular.
//
// Bank latencies are the d-group data latencies plus a switched-network
// overhead: [6]'s banks are reached through a switch fabric with
// distributed tags rather than CMP-NuRAPID's core-adjacent private tags
// and direct crossbar. NetOverhead is calibrated so the design lands
// where the paper measures it — a few percent above uniform-shared,
// well short of ideal (Figure 6).
type SNUCA struct {
	banks      []*cache.Array[sharedPayload]
	ports      []bus.Port
	lat        [topo.NumCores][topo.NumDGroups]memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
}

// SNUCANetOverhead is the per-access switched-network and distributed-
// tag overhead in cycles added to each bank's wire-distance latency.
const SNUCANetOverhead memsys.Cycles = 20

// snucaSlotCycles is a bank's issue interval: SNUCA banks are
// pipelined (they are ordinary banked-cache banks), unlike
// CMP-NuRAPID's deliberately unpipelined d-groups (§3.3.2).
const snucaSlotCycles memsys.Cycles = 4

// NewSNUCA builds the paper-scale configuration: four 2 MB 8-way banks
// at the Table 1 d-group distances plus the network overhead.
func NewSNUCA() *SNUCA {
	l := topo.Derive()
	return NewSNUCAWith(topo.DGroupBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.DGroupData, SNUCANetOverhead, 300)
}

// NewSNUCAWith builds a SNUCA with explicit geometry and timing.
func NewSNUCAWith(bankBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, dist [topo.NumCores][topo.NumDGroups]memsys.Cycles, netOverhead, memLatency memsys.Cycles) *SNUCA {
	s := &SNUCA{
		ports:      make([]bus.Port, topo.NumDGroups),
		memLatency: memLatency,
		stats:      memsys.NewL2Stats(),
	}
	for c := 0; c < topo.NumCores; c++ {
		for b := 0; b < topo.NumDGroups; b++ {
			s.lat[c][b] = dist[c][b] + netOverhead
		}
	}
	for b := 0; b < topo.NumDGroups; b++ {
		s.banks = append(s.banks, cache.NewArray[sharedPayload](
			cache.GeometryFor(bankBytes, ways, blockBytes)))
	}
	return s
}

// Name implements memsys.L2.
func (s *SNUCA) Name() string { return "non-uniform-shared" }

// Stats implements memsys.L2.
func (s *SNUCA) Stats() *memsys.L2Stats { return s.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (s *SNUCA) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { s.l1inv = fn }

// bankOf statically interleaves block addresses across banks.
func (s *SNUCA) bankOf(addr memsys.Addr) int {
	return int((uint64(addr) >> s.banks[0].BlockBits()) % uint64(len(s.banks)))
}

// innerAddr folds the bank-select bits out of an address so the bank's
// set index uses the full set range (without this, addresses in bank b
// all share set indices congruent to b and three quarters of each bank
// would go unused).
func (s *SNUCA) innerAddr(addr memsys.Addr) memsys.Addr {
	bb := s.banks[0].BlockBits()
	block := uint64(addr) >> bb
	return memsys.Addr((block / uint64(len(s.banks))) << bb)
}

// outerAddr inverts innerAddr for the given bank (used to reconstruct
// the original address of an evicted block for L1 invalidation).
func (s *SNUCA) outerAddr(inner memsys.Addr, bank int) memsys.Addr {
	bb := s.banks[0].BlockBits()
	block := uint64(inner) >> bb
	return memsys.Addr((block*uint64(len(s.banks)) + uint64(bank)) << bb)
}

// LineState implements memsys.LineStateProber for stall diagnostics:
// a shared design has no per-core coherence state, so it reports
// residency in the owning bank.
func (s *SNUCA) LineState(core int, addr memsys.Addr) string {
	b := s.bankOf(addr)
	if s.banks[b].Probe(s.innerAddr(addr)) != nil {
		return fmt.Sprintf("resident(bank%d)", b)
	}
	return fmt.Sprintf("absent(bank%d)", b)
}

// CheckInvariants verifies SNUCA's single-copy property at the bank
// level: no bank holds two valid lines for the same block. Static
// interleaving makes cross-bank duplication impossible by
// construction, so the remaining failure mode is an install path that
// skips the probe and double-allocates within a set.
func (s *SNUCA) CheckInvariants() {
	for b, bank := range s.banks {
		seen := map[memsys.Addr]bool{}
		bank.ForEach(func(_ int, l *cache.Line[sharedPayload]) {
			a := bank.AddrOf(l)
			if seen[a] {
				panic(fmt.Sprintf("l2: SNUCA bank %d holds block %#x twice", b, a))
			}
			seen[a] = true
		})
	}
}

// Access implements memsys.L2.
//
// hotpath:root
func (s *SNUCA) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(s.banks[0].Geometry().BlockBytes)
	b := s.bankOf(addr)
	lat := s.lat[core][b]
	start := s.ports[b].Acquire(now, snucaSlotCycles)
	lat += start.Sub(now)

	bank := s.banks[b]
	inner := s.innerAddr(addr)
	if l := bank.Probe(inner); l != nil {
		bank.Touch(l)
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: b,
			ClosestDGroup: b == topo.Closest(core)}
		s.stats.RecordAccess(res)
		return res
	}
	s.stats.OffChipMisses++
	v := bank.Victim(inner)
	if v.Valid() && s.l1inv != nil {
		evicted := s.outerAddr(bank.AddrOf(v), b)
		for c := 0; c < topo.NumCores; c++ {
			s.l1inv(c, evicted)
		}
	}
	bank.Install(v, inner, sharedPayload{})
	res := memsys.Result{Latency: lat + s.memLatency, Category: memsys.CapacityMiss, DGroup: -1}
	s.stats.RecordAccess(res)
	_ = write
	return res
}
