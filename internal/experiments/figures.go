package experiments

import (
	"fmt"
	"sync"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/workload"
)

// Eval runs and caches (design, workload) simulations so the figures
// that share runs (5/6 and 8/9/10, 11/12) reuse them. The cache is
// concurrency-safe with single-fill semantics: when the scheduler
// (scheduler.go) executes an evaluation's cells on a worker pool, a
// cell requested by several figures is simulated exactly once, and
// figures rendered afterwards read the completed entries without
// running anything. Sequential use (call a FigureN method directly)
// still works: a missing entry is filled on demand.
type Eval struct {
	// synccheck:unguarded immutable after NewEval
	RC RunConfig
	// synccheck:unguarded immutable after NewEval
	profiles []workload.Profile
	// synccheck:unguarded immutable after NewEval
	mixNames []string

	mu sync.Mutex
	// synccheck:guardedby mu
	cache map[string]*cacheEntry
}

// cacheEntry is one memoized simulation (or derived value). The entry
// is inserted under Eval.mu, but filled under its own once so that
// concurrent requesters of *different* keys never serialize on the
// evaluation-wide lock while a simulation runs. A fill that panics
// poisons the entry (pv/stack) instead of completing it: every later
// read re-panics with the original value, so a failed cell fails
// identically no matter which figure reads it or in what order.
type cacheEntry struct {
	once  sync.Once
	val   any
	pv    any    // the fill's panic value, when it failed
	stack string // the fill's stack at panic time
}

// NewEval builds an evaluation context at the given scale.
func NewEval(rc RunConfig) *Eval {
	return &Eval{
		RC:       rc,
		profiles: workload.Multithreaded(rc.Seed),
		mixNames: workload.MixNames(),
		cache:    map[string]*cacheEntry{},
	}
}

// memo returns the value cached under key, computing it at most once
// even when called concurrently (every caller blocks until the single
// fill completes). Each fill draws only from its own seeded workload
// split, so the value is independent of which goroutine fills it.
func (e *Eval) memo(key string, fill func() any) any {
	e.mu.Lock()
	ent, ok := e.cache[key]
	if !ok {
		ent = &cacheEntry{}
		e.cache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		if f := CapturePanic(key, func() { ent.val = fill() }); f != nil {
			ent.pv, ent.stack = f.Value, f.Stack
		}
	})
	if ent.pv != nil {
		panic(cellPanic{value: ent.pv, stack: ent.stack})
	}
	return ent.val
}

// results is memo specialized to simulation results, the common case.
func (e *Eval) results(key string, fill func() cmpsim.Results) cmpsim.Results {
	return e.memo(key, func() any { return fill() }).(cmpsim.Results)
}

// Profiles returns the multithreaded workloads in Figure 5 order.
func (e *Eval) Profiles() []workload.Profile { return e.profiles }

// Mixes returns fresh Table 2 workloads. The evaluation itself keeps
// only their names: each cell builds the one mix it runs.
func (e *Eval) Mixes() []*workload.Multiprogrammed { return workload.Mixes(e.RC.Seed) }

// commercial returns the three commercial workloads the headline
// numbers average over (the first three of the Figure 5 order).
func (e *Eval) commercial() []workload.Profile { return e.profiles[:3] }

func mtKey(d DesignName, p workload.Profile) string { return "mt/" + string(d) + "/" + p.Name }

func (e *Eval) mpKey(d DesignName, mixIdx int) string {
	return "mp/" + string(d) + "/" + e.mixNames[mixIdx]
}

// MT returns the cached result for (design, multithreaded workload).
func (e *Eval) MT(d DesignName, p workload.Profile) cmpsim.Results {
	return e.results(mtKey(d, p), func() cmpsim.Results {
		return RunProfile(d, p, e.RC)
	})
}

// MP returns the cached result for (design, mix).
func (e *Eval) MP(d DesignName, mixIdx int) cmpsim.Results {
	return e.results(e.mpKey(d, mixIdx), func() cmpsim.Results {
		// Each design must see identical streams: fresh generator per run.
		fresh := workload.Mix(mixIdx, e.RC.Seed)
		return Run(d, fresh, e.RC)
	})
}

// mtCells declares one cell per (design, profile) pair; running a cell
// fills the MT cache entry the figures read.
func (e *Eval) mtCells(designs []DesignName, profiles []workload.Profile) []Cell {
	cells := make([]Cell, 0, len(designs)*len(profiles))
	for _, p := range profiles {
		for _, d := range designs {
			cells = append(cells, Cell{Key: mtKey(d, p), Run: func() { e.MT(d, p) }})
		}
	}
	return cells
}

// mpCells declares one cell per (design, mix) pair.
func (e *Eval) mpCells(designs []DesignName) []Cell {
	cells := make([]Cell, 0, len(designs)*len(e.mixNames))
	for i := range e.mixNames {
		for _, d := range designs {
			cells = append(cells, Cell{Key: e.mpKey(d, i), Run: func() { e.MP(d, i) }})
		}
	}
	return cells
}

// Per-figure design series. The cell declarations below and the
// renderers share these so the plan always matches what rendering
// reads.
var (
	figure5Designs  = []DesignName{UniformShared, Private}
	figure6Designs  = []DesignName{NonUniform, Private, Ideal}
	figure8Designs  = []DesignName{UniformShared, Private, NuRAPIDCR, NuRAPIDISC}
	figure9Designs  = []DesignName{NuRAPIDCR, NuRAPIDISC}
	figure10Designs = []DesignName{NonUniform, Private, Ideal, NuRAPID}
	figure11Designs = []DesignName{UniformShared, Private, NuRAPID}
	figure12Designs = []DesignName{NonUniform, Private, NuRAPID}
)

// withBaseline prepends the uniform-shared baseline the relative
// figures normalize against.
func withBaseline(designs []DesignName) []DesignName {
	return append([]DesignName{UniformShared}, designs...)
}

func (e *Eval) figure5Cells() []Cell { return e.mtCells(figure5Designs, e.profiles) }
func (e *Eval) figure6Cells() []Cell { return e.mtCells(withBaseline(figure6Designs), e.profiles) }
func (e *Eval) figure7Cells() []Cell { return e.mtCells([]DesignName{Private}, e.profiles) }
func (e *Eval) figure8Cells() []Cell { return e.mtCells(figure8Designs, e.profiles) }
func (e *Eval) figure9Cells() []Cell { return e.mtCells(figure9Designs, e.profiles) }
func (e *Eval) figure10Cells() []Cell {
	return e.mtCells(withBaseline(figure10Designs), e.profiles)
}
func (e *Eval) figure11Cells() []Cell { return e.mpCells(figure11Designs) }
func (e *Eval) figure12Cells() []Cell { return e.mpCells(withBaseline(figure12Designs)) }
func (e *Eval) summaryCells() []Cell {
	return e.mtCells([]DesignName{UniformShared, Private, NuRAPID}, e.commercial())
}

// commercialAvg averages a metric over the three commercial workloads.
func (e *Eval) commercialAvg(f func(p workload.Profile) float64) float64 {
	sum := 0.0
	for _, p := range e.commercial() {
		sum += f(p)
	}
	return sum / 3
}

// barGlyphs mirrors the paper's stacked-bar legend: hits, ROS misses,
// RWS misses, capacity misses.
var barGlyphs = []rune{'#', 'r', 'w', '.'}

// accessBar renders an access distribution as a Figure 5-style
// stacked bar (#=hits r=ROS w=RWS .=capacity).
func accessBar(s *memsys.L2Stats) string {
	return stats.StackedBar([]float64{
		s.Accesses.Frac(memsys.LabelHit),
		s.Accesses.Frac(memsys.LabelROS),
		s.Accesses.Frac(memsys.LabelRWS),
		s.Accesses.Frac(memsys.LabelCapacity),
	}, 30, barGlyphs)
}

// Figure5 regenerates the distribution of L2 cache accesses for shared
// and private caches across the multithreaded workloads. The last
// column is a stacked bar (#=hits r=ROS w=RWS .=capacity), the
// terminal analogue of the paper's figure.
func (e *Eval) Figure5() *stats.Table {
	t := stats.NewTable("Figure 5: Distribution of Cache Accesses (fraction of L2 accesses)",
		"Workload", "Design", "Hits", "ROS miss", "RWS miss", "Capacity miss", "# hits  r ROS  w RWS  . capacity")
	for _, p := range e.profiles {
		for _, d := range figure5Designs {
			s := e.MT(d, p).L2
			row := append([]string{p.Name, string(d)}, accessRow(s)...)
			row = append(row, accessBar(s))
			t.Row(row...)
		}
	}
	for _, d := range figure5Designs {
		avg := e.avgAccessRow(d)
		t.Row(append([]string{"commercial-avg", string(d)}, avg...)...)
	}
	return t
}

func (e *Eval) avgAccessRow(d DesignName) []string {
	labels := []string{memsys.LabelHit, memsys.LabelROS, memsys.LabelRWS, memsys.LabelCapacity}
	cells := make([]string, 0, 4)
	for _, l := range labels {
		cells = append(cells, stats.Pct(e.commercialAvg(func(p workload.Profile) float64 {
			return e.MT(d, p).L2.Accesses.Frac(l)
		})))
	}
	return cells
}

// Figure6 regenerates the performance-opportunity figure: non-uniform-
// shared, private, and ideal caches normalized to the uniform-shared
// cache.
func (e *Eval) Figure6() *stats.Table {
	return e.perfTable(
		"Figure 6: Performance Opportunity (relative to uniform-shared)",
		figure6Designs)
}

// Figure10 regenerates the headline performance figure, adding
// CMP-NuRAPID to Figure 6's designs.
func (e *Eval) Figure10() *stats.Table {
	return e.perfTable(
		"Figure 10: Performance (relative to uniform-shared)",
		figure10Designs)
}

func (e *Eval) perfTable(title string, designs []DesignName) *stats.Table {
	header := []string{"Workload"}
	for _, d := range designs {
		header = append(header, string(d))
	}
	t := stats.NewTable(title, header...)
	for _, p := range e.profiles {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for _, d := range designs {
			row = append(row, stats.Rel(cmpsim.Speedup(e.MT(d, p), base)))
		}
		t.Row(row...)
	}
	row := []string{"commercial-avg"}
	for _, d := range designs {
		avg := e.commercialAvg(func(p workload.Profile) float64 {
			return cmpsim.Speedup(e.MT(d, p), e.MT(UniformShared, p))
		})
		row = append(row, stats.Rel(avg))
	}
	t.Row(row...)
	return t
}

// Speedup returns design d's commercial-average speedup over the
// uniform-shared baseline (the paper's headline metric).
func (e *Eval) Speedup(d DesignName) float64 {
	return e.commercialAvg(func(p workload.Profile) float64 {
		return cmpsim.Speedup(e.MT(d, p), e.MT(UniformShared, p))
	})
}

// Figure7 regenerates the block-reuse patterns measured on the private
// caches: replaced ROS-brought blocks and invalidated RWS-brought
// blocks, bucketed by reuse count.
func (e *Eval) Figure7() *stats.Table {
	t := stats.NewTable("Figure 7: Reuse Patterns (private caches; fraction of lifetimes)",
		"Workload", "Kind", "0 reuses", "1 reuse", "2-5 reuses", ">5 reuses")
	var avgROS, avgRWS [4]float64
	for _, p := range e.profiles {
		s := e.MT(Private, p).L2
		ros, rws := s.ReuseROS.Fracs(), s.ReuseRWS.Fracs()
		t.Row(p.Name, "ROS-replaced", stats.Pct(ros[0]), stats.Pct(ros[1]), stats.Pct(ros[2]), stats.Pct(ros[3]))
		t.Row(p.Name, "RWS-invalidated", stats.Pct(rws[0]), stats.Pct(rws[1]), stats.Pct(rws[2]), stats.Pct(rws[3]))
	}
	for _, p := range e.commercial() {
		s := e.MT(Private, p).L2
		ros, rws := s.ReuseROS.Fracs(), s.ReuseRWS.Fracs()
		for b := 0; b < 4; b++ {
			avgROS[b] += ros[b] / 3
			avgRWS[b] += rws[b] / 3
		}
	}
	t.Row("commercial-avg", "ROS-replaced", stats.Pct(avgROS[0]), stats.Pct(avgROS[1]), stats.Pct(avgROS[2]), stats.Pct(avgROS[3]))
	t.Row("commercial-avg", "RWS-invalidated", stats.Pct(avgRWS[0]), stats.Pct(avgRWS[1]), stats.Pct(avgRWS[2]), stats.Pct(avgRWS[3]))
	return t
}

// ReuseFracs exposes the commercial-average reuse fractions for tests
// and EXPERIMENTS.md (kind: true = ROS, false = RWS).
func (e *Eval) ReuseFracs(ros bool) [4]float64 {
	var avg [4]float64
	for _, p := range e.commercial() {
		s := e.MT(Private, p).L2
		var f [4]float64
		if ros {
			f = s.ReuseROS.Fracs()
		} else {
			f = s.ReuseRWS.Fracs()
		}
		for b := 0; b < 4; b++ {
			avg[b] += f[b] / 3
		}
	}
	return avg
}

// Figure8 regenerates the tag-array access distribution for shared,
// private, CMP-NuRAPID-with-CR, and CMP-NuRAPID-with-ISC.
func (e *Eval) Figure8() *stats.Table {
	t := stats.NewTable("Figure 8: Distribution of Tag Array Accesses",
		"Workload", "Design", "Hits", "ROS miss", "RWS miss", "Capacity miss")
	for _, p := range e.profiles {
		for _, d := range figure8Designs {
			t.Row(append([]string{p.Name, string(d)}, accessRow(e.MT(d, p).L2)...)...)
		}
	}
	for _, d := range figure8Designs {
		t.Row(append([]string{"commercial-avg", string(d)}, e.avgAccessRow(d)...)...)
	}
	return t
}

// MissFrac returns design d's commercial-average fraction of L2
// accesses in the given category.
func (e *Eval) MissFrac(d DesignName, label string) float64 {
	return e.commercialAvg(func(p workload.Profile) float64 {
		return e.MT(d, p).L2.Accesses.Frac(label)
	})
}

// Figure9 regenerates the data-array access distribution (closest
// d-group hits, farther d-group hits, misses) for CR and ISC.
func (e *Eval) Figure9() *stats.Table {
	t := stats.NewTable("Figure 9: Distribution of Data Array Accesses",
		"Workload", "Design", "Closest d-grp", "Farther d-grps", "Misses")
	for _, p := range e.profiles {
		for _, d := range figure9Designs {
			s := e.MT(d, p).L2
			t.Row(p.Name, string(d),
				stats.Pct(s.DataArray.Frac(memsys.LabelClosest)),
				stats.Pct(s.DataArray.Frac(memsys.LabelFarther)),
				stats.Pct(s.DataArray.Frac(memsys.LabelMiss)))
		}
	}
	for _, d := range figure9Designs {
		t.Row("commercial-avg", string(d),
			stats.Pct(e.dataFrac(d, memsys.LabelClosest)),
			stats.Pct(e.dataFrac(d, memsys.LabelFarther)),
			stats.Pct(e.dataFrac(d, memsys.LabelMiss)))
	}
	return t
}

func (e *Eval) dataFrac(d DesignName, label string) float64 {
	return e.commercialAvg(func(p workload.Profile) float64 {
		return e.MT(d, p).L2.DataArray.Frac(label)
	})
}

// DataFrac exposes the commercial-average data-array fractions.
func (e *Eval) DataFrac(d DesignName, label string) float64 { return e.dataFrac(d, label) }

// Figure11 regenerates the multiprogrammed access distributions for
// shared, private, and CMP-NuRAPID.
func (e *Eval) Figure11() *stats.Table {
	t := stats.NewTable("Figure 11: Distribution of Cache Accesses (multiprogrammed)",
		"Workload", "Design", "Hits", "Misses")
	avg := map[DesignName]float64{}
	for i, name := range e.mixNames {
		for _, d := range figure11Designs {
			s := e.MP(d, i).L2
			t.Row(name, string(d),
				stats.Pct(s.Accesses.Frac(memsys.LabelHit)), stats.Pct(s.MissRate()))
			avg[d] += s.MissRate() / float64(len(e.mixNames))
		}
	}
	for _, d := range figure11Designs {
		t.Row("average", string(d), stats.Pct(1-avg[d]), stats.Pct(avg[d]))
	}
	return t
}

// MixMissRate returns design d's average miss rate over the mixes.
func (e *Eval) MixMissRate(d DesignName) float64 {
	sum := 0.0
	for i := range e.mixNames {
		sum += e.MP(d, i).L2.MissRate()
	}
	return sum / float64(len(e.mixNames))
}

// Figure12 regenerates the multiprogrammed IPC figure: non-uniform-
// shared, private, and CMP-NuRAPID relative to uniform-shared.
func (e *Eval) Figure12() *stats.Table {
	header := []string{"Workload"}
	for _, d := range figure12Designs {
		header = append(header, string(d))
	}
	t := stats.NewTable("Figure 12: Performance, multiprogrammed (IPC relative to uniform-shared)", header...)
	avg := map[DesignName]float64{}
	for i, name := range e.mixNames {
		base := e.MP(UniformShared, i)
		row := []string{name}
		for _, d := range figure12Designs {
			sp := cmpsim.Speedup(e.MP(d, i), base)
			row = append(row, stats.Rel(sp))
			avg[d] += sp / float64(len(e.mixNames))
		}
		t.Row(row...)
	}
	row := []string{"average"}
	for _, d := range figure12Designs {
		row = append(row, stats.Rel(avg[d]))
	}
	t.Row(row...)
	return t
}

// MixSpeedup returns design d's average speedup over uniform-shared
// across the mixes.
func (e *Eval) MixSpeedup(d DesignName) float64 {
	sum := 0.0
	for i := range e.mixNames {
		sum += cmpsim.Speedup(e.MP(d, i), e.MP(UniformShared, i))
	}
	return sum / float64(len(e.mixNames))
}

// ClosestDGroupHitFrac returns, for CMP-NuRAPID on the mixes, the
// fraction of all accesses served by the closest d-group (§5.2.1
// reports 85%, i.e. 93% of hits).
func (e *Eval) ClosestDGroupHitFrac() float64 {
	sum := 0.0
	for i := range e.mixNames {
		s := e.MP(NuRAPID, i).L2
		sum += s.DataArray.Frac(memsys.LabelClosest)
	}
	return sum / float64(len(e.mixNames))
}

// Summary prints the headline numbers the abstract reports.
func (e *Eval) Summary() string {
	return fmt.Sprintf(
		"CMP-NuRAPID vs uniform-shared (commercial avg): %+.1f%%\n"+
			"CMP-NuRAPID vs private (commercial avg):        %+.1f%%\n",
		(e.Speedup(NuRAPID)-1)*100,
		(e.Speedup(NuRAPID)/e.Speedup(Private)-1)*100)
}
