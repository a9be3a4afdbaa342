package experiments

import (
	"fmt"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// capacityMixIdx selects MIX3 (mcf vs small apps), the mix whose
// non-uniform demand makes capacity stealing most visible.
const capacityMixIdx = 2

func capacityKey(mixIdx int) string { return fmt.Sprintf("cap/%d", mixIdx) }

// capacityCell declares the report's single simulation. The whole
// rendered table is the memo value: the report reads structural state
// (tag and frame occupancy) off the live cache, so the run and its
// rendering are one unit.
func (e *Eval) capacityCell(mixIdx int) Cell {
	return Cell{Key: capacityKey(mixIdx), Run: func() { e.CapacityReport(mixIdx) }}
}

// CapacityReport makes capacity stealing visible structurally: for a
// multiprogrammed mix on CMP-NuRAPID, it reports each core's tag
// occupancy (how many blocks it can reach), each d-group's frame
// occupancy, and how many of each core's blocks ended up in each
// d-group — the "cores with more capacity demand demote their
// less-frequently-used data to unused frames in the d-groups closer to
// the cores with less capacity demands" of §3.3.
func (e *Eval) CapacityReport(mixIdx int) *stats.Table {
	return e.memo(capacityKey(mixIdx), func() any {
		return capacityTable(e.RC, mixIdx)
	}).(*stats.Table)
}

// CapacityReport is the sequential wrapper used by tests.
func CapacityReport(rc RunConfig, mixIdx int) *stats.Table {
	return capacityTable(rc, mixIdx)
}

func capacityTable(rc RunConfig, mixIdx int) *stats.Table {
	m := workload.Mix(mixIdx, rc.Seed)
	apps := m.Apps()
	nu := core.New(core.DefaultConfig())
	sys := cmpsim.New(cmpsim.DefaultConfig(), nu, m)
	sys.Warmup(rc.WarmupInstr)
	sys.Run(rc.Instructions)

	t := stats.NewTable(
		fmt.Sprintf("Capacity allocation on %s (CMP-NuRAPID)", m.Name()),
		"Core (app)", "Tag entries used", "Blocks in own d-group", "Blocks stolen elsewhere")
	own, stolen := nu.OwnershipByDGroup()
	tags := nu.TagOccupancy()
	for c := 0; c < topo.NumCores; c++ {
		t.Row(fmt.Sprintf("P%d (%s)", c, apps[c].Name),
			fmt.Sprint(tags[c]), fmt.Sprint(own[c]), fmt.Sprint(stolen[c]))
	}
	occ := nu.Occupancy()
	t.Row("d-group frames used", fmt.Sprintf("a=%d b=%d c=%d d=%d", occ[0], occ[1], occ[2], occ[3]), "", "")
	return t
}
