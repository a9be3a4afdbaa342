package main

import (
	"time"

	"cmpnurapid/internal/experiments"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run (--trace 0).
var endToEndDefs = []metricDef{
	{"wall_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// sweepDesigns are the seven designs the sweep runs, in the order the
// per-design L2 metrics are reported.
var sweepDesigns = []experiments.DesignName{
	experiments.UniformShared, experiments.NonUniform, experiments.Private, experiments.Ideal,
	experiments.NuRAPID, experiments.NuRAPIDCR, experiments.NuRAPIDISC,
}

// perLayerDefs are the metrics of a traced run (--trace 1). Every
// workload reports all of them; a counter of a layer the workload does
// not exercise (a design it does not run, the farm off -isolate) is 0.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"experiments.plan_ms", "ms"},
		{"experiments.cells", "count"},
		{"experiments.cell_ms_p50", "ms"},
		{"experiments.cell_ms_hi", "ms"},
		{"experiments.busy_frac", "ratio"},
		{"experiments.tail_ms", "ms"},
		{"experiments.render_ms", "ms"},
		{"workload.construct_ms", "ms"},
		{"workload.next_calls", "count"},
		{"workload.next_ns_per_call", "ns"},
		{"workload.next_share", "ratio"},
		{"cmpsim.construct_ms", "ms"},
		{"cmpsim.self_ns_per_step", "ns"},
		{"l2.construct_ms", "ms"},
	}
	for _, d := range sweepDesigns {
		defs = append(defs,
			metricDef{"l2." + string(d) + ".access_calls", "count"},
			metricDef{"l2." + string(d) + ".access_ns_per_call", "ns"})
	}
	defs = append(defs,
		metricDef{"l2.iscomm_calls", "count"},
		metricDef{"l2.iscomm_ns_per_call", "ns"},
	)
	for _, name := range simCountNames {
		unit := "count"
		if name == "cmpsim.sim_cycles" || name == "bus.wait_cycles" {
			unit = "cycles"
		}
		defs = append(defs, metricDef{name, unit})
	}
	return append(defs,
		metricDef{"farm.overhead_ms_per_cell", "ms"},
		metricDef{"farm.resume_ms", "ms"},
		metricDef{"farm.store_hits", "count"},
		metricDef{"farm.computed", "count"},
		metricDef{"farm.retries", "count"},
		metricDef{"budget.cell_ms_sum", "ms"},
		metricDef{"budget.workload_ms", "ms"},
		metricDef{"budget.cmpsim_ms", "ms"},
		metricDef{"budget.l2_ms", "ms"},
		metricDef{"budget.install_ms", "ms"},
		metricDef{"budget.unattributed_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passMetrics derives the per-layer metrics of one traced pass, except
// the farm and overhead metrics, which need the untraced runs.
// cost is the clock cost callStat.estimate subtracts per timed call.
func passMetrics(p tracePass, workers int, cost time.Duration) map[string]float64 {
	m := map[string]float64{}
	var (
		cellTimes                      []float64
		spans                          []span
		cellSum, wlBuild, l2Build, sys time.Duration
		sysBuild, install              time.Duration
		next, iscomm                   callStat
		nextEst, accessEst, iscommEst  time.Duration
		perDesign                      = map[string]*callStat{}
		sim                            = make([]uint64, len(simCountNames))
	)
	for _, c := range p.cells {
		cellTimes = append(cellTimes, ms(c.end-c.start))
		spans = append(spans, span{c.start, c.end})
		cellSum += c.end - c.start
		wlBuild += c.l2Start - c.workloadStart
		l2Build += c.cmpsimStart - c.l2Start
		sysBuild += c.warmupStart - c.cmpsimStart
		sys += c.installStart - c.warmupStart
		install += c.installEnd - c.installStart
		next.add(c.next)
		iscomm.add(c.iscomm)
		nextEst += c.next.estimate(cost)
		accessEst += c.access.estimate(cost)
		iscommEst += c.iscomm.estimate(cost)
		if perDesign[c.design] == nil {
			perDesign[c.design] = &callStat{}
		}
		perDesign[c.design].add(c.access)
		for i, v := range c.sim {
			sim[i] += v
		}
	}
	m["experiments.plan_ms"] = ms(p.planEnd)
	m["experiments.cells"] = float64(len(p.cells))
	m["experiments.cell_ms_p50"] = median(cellTimes)
	_, m["experiments.cell_ms_hi"] = highPercentile(cellTimes)
	busy, tail := busyTail(spans, workers, p.planEnd, p.execEnd)
	m["experiments.busy_frac"] = busy
	m["experiments.tail_ms"] = ms(tail)
	m["experiments.render_ms"] = ms(p.renderEnd - p.execEnd)

	m["workload.construct_ms"] = ms(wlBuild)
	m["workload.next_calls"] = float64(next.calls)
	m["workload.next_ns_per_call"] = perCall(nextEst, next.calls)
	if cellSum > 0 {
		m["workload.next_share"] = float64(nextEst) / float64(cellSum)
	}
	sysSelf := sys - nextEst - accessEst - iscommEst
	m["cmpsim.construct_ms"] = ms(sysBuild)
	m["cmpsim.self_ns_per_step"] = perCall(sysSelf, next.calls)
	m["l2.construct_ms"] = ms(l2Build)
	for _, d := range sweepDesigns {
		var st callStat
		if s := perDesign[string(d)]; s != nil {
			st = *s
		}
		m["l2."+string(d)+".access_calls"] = float64(st.calls)
		m["l2."+string(d)+".access_ns_per_call"] = perCall(st.estimate(cost), st.calls)
	}
	m["l2.iscomm_calls"] = float64(iscomm.calls)
	m["l2.iscomm_ns_per_call"] = perCall(iscommEst, iscomm.calls)
	for i, name := range simCountNames {
		m[name] = float64(sim[i])
	}

	wl := wlBuild + nextEst
	l2 := l2Build + accessEst + iscommEst
	cs := sysBuild + sysSelf
	m["budget.cell_ms_sum"] = ms(cellSum)
	m["budget.workload_ms"] = ms(wl)
	m["budget.cmpsim_ms"] = ms(cs)
	m["budget.l2_ms"] = ms(l2)
	m["budget.install_ms"] = ms(install)
	m["budget.unattributed_ms"] = ms(cellSum - wl - l2 - cs - install)
	return m
}

func perCall(d time.Duration, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d) / float64(calls)
}
