package experiments

import (
	"fmt"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/workload"
)

// This file regenerates the design-choice ablations DESIGN.md calls
// out: promotion policy (§3.3.1 prefers fastest in CMPs), tag-array
// capacity (§2.2.2 doubles instead of quadrupling), the CR replication
// trigger (§3.1 copies on the second use), and the CR/ISC optimization
// matrix (§5.1.2). Each ablation is an Eval method backed by memoized
// variant runs, plus a cell declaration so the scheduler can execute
// the runs concurrently before rendering; the package-level functions
// of the same names are sequential convenience wrappers.

// runNuRAPIDVariant runs a workload on a CMP-NuRAPID with the config
// mutated by mut, returning the results.
func runNuRAPIDVariant(w cmpsim.Workload, rc RunConfig, mut func(*core.Config)) cmpsim.Results {
	cfg := core.DefaultConfig()
	mut(&cfg)
	sys := cmpsim.New(cmpsim.DefaultConfig(), core.New(cfg), w)
	sys.Warmup(rc.WarmupInstr)
	return sys.Run(rc.Instructions)
}

// variantMT memoizes a CMP-NuRAPID config variant on a multithreaded
// profile under key.
func (e *Eval) variantMT(key string, p workload.Profile, mut func(*core.Config)) cmpsim.Results {
	return e.results(key, func() cmpsim.Results {
		pp := p
		pp.Seed = e.RC.Seed
		return runNuRAPIDVariant(workload.New(pp), e.RC, mut)
	})
}

// variantMix memoizes a CMP-NuRAPID config variant on a Table 2 mix
// under key. A fresh generator per fill keeps streams identical across
// variants.
func (e *Eval) variantMix(key string, mixIdx int, mut func(*core.Config)) cmpsim.Results {
	return e.results(key, func() cmpsim.Results {
		return runNuRAPIDVariant(workload.Mix(mixIdx, e.RC.Seed), e.RC, mut)
	})
}

// --- promotion policy (§3.3.1) ---

var promotionPolicies = []core.PromotionPolicy{core.NoPromotion, core.Fastest, core.NextFastest}

func promotionKey(mixIdx int, pol core.PromotionPolicy) string {
	return fmt.Sprintf("abl/promotion/%d/%d", mixIdx, pol)
}

func (e *Eval) promotionRun(mixIdx int, pol core.PromotionPolicy) cmpsim.Results {
	return e.variantMix(promotionKey(mixIdx, pol), mixIdx,
		func(c *core.Config) { c.Promotion = pol })
}

func (e *Eval) ablationPromotionCells() []Cell {
	var cells []Cell
	for i := range e.mixNames {
		for _, pol := range promotionPolicies {
			cells = append(cells, Cell{Key: promotionKey(i, pol), Run: func() { e.promotionRun(i, pol) }})
		}
	}
	return cells
}

// AblationPromotion compares the fastest and next-fastest promotion
// policies (and no promotion) on the multiprogrammed mixes, where
// capacity stealing matters most. The paper found fastest more
// effective in CMPs because "one core's next-fastest d-group is
// another core's fastest" (§3.3.1).
func (e *Eval) AblationPromotion() *stats.Table {
	t := stats.NewTable("Ablation: CS promotion policy (weighted speedup vs no promotion)",
		"Workload", "fastest", "next-fastest")
	for i, name := range e.mixNames {
		base := e.promotionRun(i, core.NoPromotion)
		row := []string{name}
		for _, pol := range []core.PromotionPolicy{core.Fastest, core.NextFastest} {
			row = append(row, stats.Rel(cmpsim.Speedup(e.promotionRun(i, pol), base)))
		}
		t.Row(row...)
	}
	return t
}

// AblationPromotion is the sequential wrapper used by tests and
// benchmarks.
func AblationPromotion(rc RunConfig) *stats.Table { return NewEval(rc).AblationPromotion() }

// PromotionSpeedups returns (fastest, nextFastest) weighted speedups
// over no-promotion for one mix, for tests.
func PromotionSpeedups(rc RunConfig, mixIdx int) (fastest, nextFastest float64) {
	e := NewEval(rc)
	base := e.promotionRun(mixIdx, core.NoPromotion)
	f := e.promotionRun(mixIdx, core.Fastest)
	n := e.promotionRun(mixIdx, core.NextFastest)
	return cmpsim.Speedup(f, base), cmpsim.Speedup(n, base)
}

// --- tag-array capacity (§2.2.2) ---

var tagFactors = []int{1, 2, 4}

func tagKey(factor int, p workload.Profile) string {
	return fmt.Sprintf("abl/tags/%dx/%s", factor, p.Name)
}

func (e *Eval) tagRun(factor int, p workload.Profile) cmpsim.Results {
	return e.variantMT(tagKey(factor, p), p, func(c *core.Config) {
		c.TagSets = c.TagSets * factor / 2 // default is the 2x config
	})
}

func (e *Eval) ablationTagCapacityCells() []Cell {
	cells := e.mtCells([]DesignName{UniformShared}, e.commercial())
	for _, p := range e.commercial() {
		for _, f := range tagFactors {
			cells = append(cells, Cell{Key: tagKey(f, p), Run: func() { e.tagRun(f, p) }})
		}
	}
	return cells
}

// AblationTagCapacity compares 1x, 2x, and 4x tag-array capacity on
// the commercial workloads. The paper found doubling performs almost
// as well as quadrupling at a quarter of the capacity overhead
// (§2.2.2).
func (e *Eval) AblationTagCapacity() *stats.Table {
	t := stats.NewTable("Ablation: private tag capacity (speedup vs uniform-shared)",
		"Workload", "1x tags", "2x tags (paper)", "4x tags")
	for _, p := range e.commercial() {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for _, f := range tagFactors {
			row = append(row, stats.Rel(cmpsim.Speedup(e.tagRun(f, p), base)))
		}
		t.Row(row...)
	}
	return t
}

// AblationTagCapacity is the sequential wrapper used by tests and
// benchmarks.
func AblationTagCapacity(rc RunConfig) *stats.Table { return NewEval(rc).AblationTagCapacity() }

// TagCapacitySpeedups returns the speedups over uniform-shared for
// 1x/2x/4x tags on one commercial workload, for tests.
func TagCapacitySpeedups(rc RunConfig, p workload.Profile) [3]float64 {
	e := NewEval(rc)
	base := e.MT(UniformShared, p)
	var out [3]float64
	for i, f := range tagFactors {
		out[i] = cmpsim.Speedup(e.tagRun(f, p), base)
	}
	return out
}

// --- CR replication trigger (§3.1) ---

var replicationPolicies = []core.ReplicationPolicy{
	core.ReplicateFirstUse, core.ReplicateSecondUse, core.ReplicateNever,
}

func replicationKey(pol core.ReplicationPolicy, p workload.Profile) string {
	return fmt.Sprintf("abl/replication/%d/%s", pol, p.Name)
}

func (e *Eval) replicationRun(pol core.ReplicationPolicy, p workload.Profile) cmpsim.Results {
	return e.variantMT(replicationKey(pol, p), p,
		func(c *core.Config) { c.Replication = pol })
}

func (e *Eval) ablationReplicationCells() []Cell {
	cells := e.mtCells([]DesignName{UniformShared}, e.commercial())
	for _, p := range e.commercial() {
		for _, pol := range replicationPolicies {
			cells = append(cells, Cell{Key: replicationKey(pol, p), Run: func() { e.replicationRun(pol, p) }})
		}
	}
	return cells
}

// AblationReplicationTrigger compares replicating on first use, second
// use (CR), and never, on the commercial workloads (§3.1: not copying
// on the first use saves capacity for the ~40% of blocks never
// reused; copying on the second avoids slow repeat accesses).
func (e *Eval) AblationReplicationTrigger() *stats.Table {
	t := stats.NewTable("Ablation: CR replication trigger (speedup vs uniform-shared)",
		"Workload", "first use", "second use (CR)", "never")
	for _, p := range e.commercial() {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for _, pol := range replicationPolicies {
			row = append(row, stats.Rel(cmpsim.Speedup(e.replicationRun(pol, p), base)))
		}
		t.Row(row...)
	}
	return t
}

// AblationReplicationTrigger is the sequential wrapper used by tests
// and benchmarks.
func AblationReplicationTrigger(rc RunConfig) *stats.Table {
	return NewEval(rc).AblationReplicationTrigger()
}

// --- stuck-C-copy migration extension (§3.2 future work) ---

var cMigrationThresholds = []int{0, 4, 16}

func cMigrationKey(threshold int, p workload.Profile) string {
	return fmt.Sprintf("abl/cmigration/%d/%s", threshold, p.Name)
}

func (e *Eval) cMigrationRun(threshold int, p workload.Profile) cmpsim.Results {
	return e.variantMT(cMigrationKey(threshold, p), p,
		func(c *core.Config) { c.CMigrationThreshold = threshold })
}

func (e *Eval) ablationCMigrationCells() []Cell {
	cells := e.mtCells([]DesignName{UniformShared}, e.commercial())
	for _, p := range e.commercial() {
		for _, th := range cMigrationThresholds {
			cells = append(cells, Cell{Key: cMigrationKey(th, p), Run: func() { e.cMigrationRun(th, p) }})
		}
	}
	return cells
}

// AblationCMigration evaluates the stuck-C-copy migration extension
// (the paper's §3.2 future-work item) on the commercial workloads:
// threshold 0 is the published design; small thresholds let a copy
// abandoned by its host migrate to the reader still using it.
func (e *Eval) AblationCMigration() *stats.Table {
	t := stats.NewTable("Extension: stuck-C-copy migration (speedup vs uniform-shared)",
		"Workload", "off (paper)", "threshold 4", "threshold 16")
	for _, p := range e.commercial() {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for _, th := range cMigrationThresholds {
			row = append(row, stats.Rel(cmpsim.Speedup(e.cMigrationRun(th, p), base)))
		}
		t.Row(row...)
	}
	return t
}

// AblationCMigration is the sequential wrapper used by tests and
// benchmarks.
func AblationCMigration(rc RunConfig) *stats.Table { return NewEval(rc).AblationCMigration() }

// --- invalidate vs update vs ISC (§3.2) ---

var updateProtocolDesigns = []DesignName{Private, PrivateUpdate, NuRAPID}

func (e *Eval) ablationUpdateCells() []Cell {
	return e.mtCells(withBaseline(updateProtocolDesigns), e.commercial())
}

// AblationUpdateProtocol pits in-situ communication against the
// update-protocol alternative §3.2 dismisses: both avoid coherence
// misses on read-write sharing, but the update protocol pays a bus
// broadcast per shared write and keeps a copy per sharer, while ISC
// keeps one copy and posts invalidations only for L1 freshness.
func (e *Eval) AblationUpdateProtocol() *stats.Table {
	t := stats.NewTable("Extension: invalidate vs update vs ISC (speedup vs uniform-shared)",
		"Workload", "private (invalidate)", "private-update", "CMP-NuRAPID (ISC)")
	for _, p := range e.commercial() {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for _, d := range updateProtocolDesigns {
			row = append(row, stats.Rel(cmpsim.Speedup(e.MT(d, p), base)))
		}
		t.Row(row...)
	}
	return t
}

// AblationUpdateProtocol is the sequential wrapper used by tests and
// benchmarks.
func AblationUpdateProtocol(rc RunConfig) *stats.Table { return NewEval(rc).AblationUpdateProtocol() }

// UpdateProtocolSpeedups returns (invalidate, update, isc) speedups on
// one workload, for tests.
func UpdateProtocolSpeedups(rc RunConfig, p workload.Profile) (inv, upd, isc float64) {
	base := RunProfile(UniformShared, p, rc)
	return cmpsim.Speedup(RunProfile(Private, p, rc), base),
		cmpsim.Speedup(RunProfile(PrivateUpdate, p, rc), base),
		cmpsim.Speedup(RunProfile(NuRAPID, p, rc), base)
}

// --- CR x ISC optimization matrix (§5.1.2) ---

// optVariants crosses the replication trigger with ISC: Figure 8's
// one-at-a-time runs, completed to the full 2x2 matrix.
var optVariants = []struct {
	repl core.ReplicationPolicy
	isc  bool
}{
	{core.ReplicateFirstUse, false},
	{core.ReplicateSecondUse, false},
	{core.ReplicateFirstUse, true},
	{core.ReplicateSecondUse, true},
}

func optKey(v int, p workload.Profile) string {
	return fmt.Sprintf("abl/opt/%d-%t/%s", optVariants[v].repl, optVariants[v].isc, p.Name)
}

func (e *Eval) optRun(v int, p workload.Profile) cmpsim.Results {
	return e.variantMT(optKey(v, p), p, func(c *core.Config) {
		c.Replication = optVariants[v].repl
		c.EnableISC = optVariants[v].isc
	})
}

func (e *Eval) ablationOptimizationsCells() []Cell {
	cells := e.mtCells([]DesignName{UniformShared}, e.commercial())
	for _, p := range e.commercial() {
		for v := range optVariants {
			cells = append(cells, Cell{Key: optKey(v, p), Run: func() { e.optRun(v, p) }})
		}
	}
	return cells
}

// AblationOptimizations crosses CR and ISC on the commercial workloads
// (Figure 8's one-at-a-time runs, completed to the full 2x2 matrix).
func (e *Eval) AblationOptimizations() *stats.Table {
	t := stats.NewTable("Ablation: CR x ISC (speedup vs uniform-shared)",
		"Workload", "neither", "CR only", "ISC only", "both")
	for _, p := range e.commercial() {
		base := e.MT(UniformShared, p)
		row := []string{p.Name}
		for v := range optVariants {
			row = append(row, stats.Rel(cmpsim.Speedup(e.optRun(v, p), base)))
		}
		t.Row(row...)
	}
	return t
}

// AblationOptimizations is the sequential wrapper used by tests and
// benchmarks.
func AblationOptimizations(rc RunConfig) *stats.Table { return NewEval(rc).AblationOptimizations() }
