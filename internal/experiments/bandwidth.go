package experiments

import (
	"fmt"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/workload"
)

// bandwidthWorkloads names the two traffic cases the report measures:
// OLTP exercises the write-through/BusUpg claim; MIX1 (non-uniform
// demand) exercises the demotion-bandwidth claim.
var bandwidthWorkloads = []string{"oltp", "MIX1"}

// bandwidthDesigns are the designs whose bus traffic is compared.
var bandwidthDesigns = []DesignName{Private, NuRAPID}

// busRun carries one bandwidth measurement: the simulation results
// plus the bus counters read from the live system (Results alone does
// not expose them).
type busRun struct {
	results cmpsim.Results
	busTx   uint64
	busWait memsys.Cycles
}

func bandwidthKey(wname string, d DesignName) string { return "bw/" + wname + "/" + string(d) }

// bandwidthRun memoizes one (workload, design) traffic measurement.
func (e *Eval) bandwidthRun(wname string, d DesignName) busRun {
	return e.memo(bandwidthKey(wname, d), func() any {
		var w cmpsim.Workload
		switch wname {
		case "oltp":
			w = workload.New(workload.OLTP(e.RC.Seed))
		case "MIX1":
			w = workload.Mix(0, e.RC.Seed)
		default:
			panic(fmt.Sprintf("experiments: unknown bandwidth workload %q", wname))
		}
		sys := cmpsim.New(cmpsim.DefaultConfig(), NewDesign(d), w)
		sys.Warmup(e.RC.WarmupInstr)
		br := busRun{results: sys.Run(e.RC.Instructions)}
		switch l2d := sys.L2().(type) {
		case *core.Cache:
			br.busTx, br.busWait = l2d.Bus().TotalTransactions(), l2d.Bus().WaitCycles()
		case *l2.Private:
			br.busTx, br.busWait = l2d.Bus().TotalTransactions(), l2d.Bus().WaitCycles()
		}
		return br
	}).(busRun)
}

func (e *Eval) bandwidthCells() []Cell {
	var cells []Cell
	for _, wname := range bandwidthWorkloads {
		for _, d := range bandwidthDesigns {
			cells = append(cells, Cell{Key: bandwidthKey(wname, d), Run: func() { e.bandwidthRun(wname, d) }})
		}
	}
	return cells
}

// BandwidthReport quantifies the traffic claims the paper makes
// without a figure:
//
//   - §3.3.2: "the demotions are not frequent enough to cause a
//     bandwidth problem in the tag arrays or data d-groups" — reported
//     as demotions per 1 000 retired instructions.
//   - §3.2: "write through for C blocks is not likely to cause
//     bandwidth problems" — reported as write-throughs and posted
//     BusUpg invalidations per 1 000 instructions.
//   - Bus health overall: transactions per 1 000 instructions and
//     cumulative arbitration wait.
func (e *Eval) BandwidthReport() *stats.Table {
	t := stats.NewTable("Bandwidth: bus and d-group traffic per 1000 instructions",
		"Workload", "Design", "Bus txns", "Bus wait cyc", "Demotions", "Promotions", "Write-throughs")
	for _, wname := range bandwidthWorkloads {
		for _, d := range bandwidthDesigns {
			br := e.bandwidthRun(wname, d)
			r := br.results
			per1k := func(n uint64) string {
				return fmt.Sprintf("%.2f", 1000*float64(n)/float64(r.Instructions))
			}
			var wt uint64
			for _, c := range r.Cores {
				wt += c.Writethroughs
			}
			s := r.L2
			t.Row(wname, string(d), per1k(br.busTx), fmt.Sprint(br.busWait),
				per1k(s.Demotions), per1k(s.Promotions), per1k(wt))
		}
	}
	return t
}

// BandwidthReport is the sequential wrapper used by tests.
func BandwidthReport(rc RunConfig) *stats.Table { return NewEval(rc).BandwidthReport() }

// DemotionsPer1K returns CMP-NuRAPID's demotion rate on a workload,
// for the §3.3.2 bandwidth-claim test.
func DemotionsPer1K(rc RunConfig, w cmpsim.Workload) float64 {
	sys := cmpsim.New(cmpsim.DefaultConfig(), NewDesign(NuRAPID), w)
	sys.Warmup(rc.WarmupInstr)
	r := sys.Run(rc.Instructions)
	return 1000 * float64(r.L2.Demotions) / float64(r.Instructions)
}

// dnucaDesigns extends Figure 6's series with the CMP-DNUCA baseline.
var dnucaDesigns = []DesignName{NonUniform, DNUCA, NuRAPID}

func (e *Eval) dnucaCells() []Cell {
	return e.mtCells(withBaseline(dnucaDesigns), e.commercial())
}

// DNUCAComparison extends Figure 6 with the CMP-DNUCA baseline [6]
// whose negative result the paper cites.
func (e *Eval) DNUCAComparison() *stats.Table {
	t := stats.NewTable("Extension: CMP-DNUCA vs CMP-SNUCA vs CMP-NuRAPID (speedup vs uniform-shared)",
		"Workload", "SNUCA (static)", "DNUCA (migration)", "CMP-NuRAPID")
	for _, p := range e.commercial() {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for _, d := range dnucaDesigns {
			row = append(row, stats.Rel(cmpsim.Speedup(e.MT(d, p), base)))
		}
		t.Row(row...)
	}
	return t
}

// DNUCAComparison is the sequential wrapper used by tests.
func DNUCAComparison(rc RunConfig) *stats.Table { return NewEval(rc).DNUCAComparison() }
