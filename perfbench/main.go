// Command perfbench is the repository's benchmark: it runs one
// workload of the paper's evaluation sweep through the cmd/experiments
// binary for a fixed time, checks the output, and prints the
// end-to-end metrics (--trace 0) or, from a traced in-process replay
// of the same cells, the per-layer metrics (--trace 1). The last line
// of stdout is one JSON object; run.py builds the binaries and starts
// it. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/topo"
)

// The benchmark runs at the scale of the repository's quick golden.
const (
	warmupInstr   = 200_000
	measuredInstr = 200_000
	goldenSeed    = 42
	goldenExps    = "table1,fig5"
	goldenFile    = "docs/golden/quick_table1_fig5.golden"
)

// workloadSpec is one benchmark workload: an -exp selection of
// cmd/experiments, run sequentially or on the worker pool, in-process
// or on the farm.
type workloadSpec struct {
	name, exps string
	sequential bool
	isolate    bool
}

var workloads = []workloadSpec{
	{name: "mt-figs", exps: "fig5,fig6,fig7,fig8,fig9,fig10", sequential: true},
	{name: "mp-figs", exps: "fig11,fig12", sequential: true},
	{name: "sweep", exps: "all"},
	{name: "sweep-isolated", exps: "all", isolate: true},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: mt-figs, mp-figs, sweep or sweep-isolated")
		seed     = fs.Uint64("seed", 42, "workload seed")
		seconds  = fs.Int("seconds", 20, "measurement time")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = fs.String("experiments", "", "path of the cmd/experiments binary")
		root     = fs.String("root", ".", "checkout root (for the golden file)")
		work     = fs.String("work", "", "scratch directory for result stores")
		traceDir = fs.String("trace-dir", "", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	switch {
	case spec == nil:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	case *bin == "" || *work == "":
		fmt.Fprintln(stderr, "perfbench: -experiments and -work are required (run.py sets them)")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rc := experiments.RunConfig{WarmupInstr: warmupInstr, Instructions: measuredInstr, Seed: *seed}
	rc.Validate()
	b := &bench{
		spec: *spec, rc: rc, bin: *bin, root: *root, work: *work,
		parallel: min(2, runtime.NumCPU()),
	}
	if spec.sequential {
		b.parallel = 1
	}
	deadline := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(deadline, *traceDir)
	} else {
		res, err = b.untraced(deadline)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", e)
	}
	res.Correct = len(b.errs) == 0
	res.Attempted, res.Failed = failCount(b.runs)
	fmt.Fprint(stdout, b.report.String())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one benchmark invocation.
type bench struct {
	spec     workloadSpec
	rc       experiments.RunConfig
	bin      string
	root     string
	work     string
	parallel int

	errs   []string     // failed correctness checks
	runs   []runOutcome // every program run, for the failure count
	report strings.Builder
	ref    *procRun // in-process sweep the workload's output is checked against
}

func (b *bench) fail(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

func (b *bench) args(exps string, parallel int, seed uint64) []string {
	return []string{
		"-exp", exps, "-parallel", fmt.Sprint(parallel),
		"-warmup", fmt.Sprint(warmupInstr), "-instr", fmt.Sprint(measuredInstr),
		"-seed", fmt.Sprint(seed),
	}
}

// planSize is the number of cells the selection plans.
func planSize(exps string, seed uint64) int {
	sel, err := experiments.Select(exps)
	if err != nil {
		panic("perfbench: " + err.Error()) // the selections are constants of this file
	}
	return len(experiments.Plan(sel, experiments.NewEval(experiments.RunConfig{
		WarmupInstr: warmupInstr, Instructions: measuredInstr, Seed: seed})))
}

// checked runs the program once and applies the checks every run
// gets: exit 0, no failure report, every planned cell reported. The
// run counts toward the failure fraction with cells cells.
func (b *bench) checked(what string, cells int, args ...string) procRun {
	r, err := runProc(b.bin, args...)
	ok := err == nil
	if err != nil {
		b.fail("%s: %v", what, err)
	}
	if bytes.Contains(r.stdout, []byte("FAILURE REPORT")) {
		ok = false
		b.fail("%s: output has a FAILURE REPORT", what)
	}
	if err == nil && len(r.cellTime) != cells {
		ok = false
		b.fail("%s: %d cells reported, %d planned", what, len(r.cellTime), cells)
	}
	b.runs = append(b.runs, runOutcome{cells: cells, correct: ok})
	return r
}

// checkGolden diffs the quick-scale table1,fig5 run against the
// committed golden.
func (b *bench) checkGolden() {
	want, err := os.ReadFile(filepath.Join(b.root, goldenFile))
	if err != nil {
		b.fail("golden: %v", err)
		return
	}
	r := b.checked("golden", planSize(goldenExps, goldenSeed),
		b.args(goldenExps, b.parallel, goldenSeed)...)
	if !bytes.Equal(r.stdout, want) {
		b.fail("golden: table1,fig5 output differs from %s", goldenFile)
		b.runs[len(b.runs)-1].correct = false
	}
}

// reference runs the in-process sweep at the workload's seed: the
// output the other workloads' figures must match, and the in-process
// cell times the farm overhead is measured against.
func (b *bench) reference() *procRun {
	r := b.checked("reference sweep", planSize("all", b.rc.Seed), b.args("all", min(2, runtime.NumCPU()), b.rc.Seed)...)
	return &r
}

// rep is one measured repetition of the workload: one process, or for
// sweep-isolated a cold pass on an empty store and a resume pass.
type rep struct {
	passes  []procRun
	wall    time.Duration // summed over passes
	setup   time.Duration // of the first pass
	cellSum time.Duration // of the first pass
	rssKB   int64         // over passes
}

// runRep runs and checks one repetition; first is the stdout of the
// workload's first repetition (nil for the first).
func (b *bench) runRep(i int, cells int, first []byte) rep {
	args := b.args(b.spec.exps, b.parallel, b.rc.Seed)
	var r rep
	if b.spec.isolate {
		store := filepath.Join(b.work, fmt.Sprintf("store-%d", i))
		defer os.RemoveAll(store)
		args = append(args, "-isolate", "-store", store)
		cold := b.checked(fmt.Sprintf("rep %d cold pass", i), cells, args...)
		resume := b.checked(fmt.Sprintf("rep %d resume pass", i), cells, args...)
		if cold.farm.computed != cells || cold.farm.storeHits != 0 {
			b.fail("rep %d cold pass: farm %+v, want %d computed from an empty store", i, cold.farm, cells)
		}
		if resume.farm.storeHits != cells {
			b.fail("rep %d resume pass: farm %+v, want %d store hits", i, resume.farm, cells)
		}
		r.passes = []procRun{cold, resume}
	} else {
		r.passes = []procRun{b.checked(fmt.Sprintf("rep %d", i), cells, args...)}
	}
	for j, p := range r.passes {
		r.wall += p.wall
		r.rssKB = max(r.rssKB, p.maxRSSKB)
		if first != nil && !bytes.Equal(p.stdout, first) {
			b.fail("rep %d pass %d: stdout differs from the first run of %s", i, j, b.spec.name)
		}
		if b.ref != nil && b.spec.isolate && !bytes.Equal(p.stdout, b.ref.stdout) {
			b.fail("rep %d pass %d: -isolate stdout differs from the in-process sweep", i, j)
		}
	}
	r.setup, r.cellSum = r.passes[0].setup, r.passes[0].cellSum
	if first == nil && b.ref != nil && !b.spec.isolate {
		if err := sectionsMatch(r.passes[0].stdout, b.ref.stdout); err != nil {
			b.fail("%s vs sweep: %v", b.spec.name, err)
		}
	}
	return r
}

// sectionsMatch checks that every section (blank-line separated
// block) of out appears verbatim in ref.
func sectionsMatch(out, ref []byte) error {
	have := map[string]bool{}
	for _, s := range bytes.Split(ref, []byte("\n\n")) {
		have[string(s)] = true
	}
	for _, s := range bytes.Split(out, []byte("\n\n")) {
		if len(bytes.TrimSpace(s)) > 0 && !have[string(s)] {
			title, _, _ := bytes.Cut(s, []byte("\n"))
			return fmt.Errorf("section %q differs from the sweep's", title)
		}
	}
	return nil
}

// prepare runs the checks that precede measurement and returns the
// workload's cell count.
func (b *bench) prepare() int {
	b.checkGolden()
	if b.spec.name != "sweep" {
		b.ref = b.reference()
	}
	return planSize(b.spec.exps, b.rc.Seed)
}

// measure runs repetitions until the time is up (at least one),
// calling after each.
func (b *bench) measure(d time.Duration, cells int, after func(i int, r rep)) []rep {
	var reps []rep
	var first []byte
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		r := b.runRep(i, cells, first)
		if first == nil {
			first = r.passes[0].stdout
		}
		reps = append(reps, r)
		if after != nil {
			after(i, r)
		}
	}
	return reps
}

func (b *bench) untraced(d time.Duration) (result, error) {
	cells := b.prepare()
	reps := b.measure(d, cells, nil)
	var wall, mips, setup, rss []float64
	for _, r := range reps {
		wall = append(wall, r.wall.Seconds())
		rss = append(rss, float64(r.rssKB)/1024)
		if r.cellSum <= 0 || r.setup < 0 {
			continue // a failed run reported no cells; its checks have failed
		}
		mips = append(mips, nominalInstr(cells, topo.NumCores, warmupInstr, measuredInstr)/r.cellSum.Seconds()/1e6)
		setup = append(setup, r.setup.Seconds())
	}
	vals := map[string][]float64{"wall_s": wall, "sim_mips": mips, "setup_s": setup, "peak_rss_mb": rss}
	ff := failFrac(b.runs)
	command := strings.Join(b.args(b.spec.exps, b.parallel, b.rc.Seed), " ")
	if b.spec.isolate {
		command += " -isolate (cold + resume pass)"
	}
	fmt.Fprintf(&b.report, "perfbench %s: seed %d, %d repetitions of experiments %s\n",
		b.spec.name, b.rc.Seed, len(reps), command)
	res := result{Metrics: map[string]metric{}}
	for _, def := range endToEndDefs {
		v := 1 - ff
		if xs, ok := vals[def.name]; ok {
			v = median(xs)
			fmt.Fprintf(&b.report, "  %-12s %12.4f %-9s median; quartiles %.4f .. %.4f\n",
				def.name, v, def.unit, percentile(xs, 25), percentile(xs, 75))
		} else {
			fmt.Fprintf(&b.report, "  %-12s %12.4f %-9s fail_frac %.4f\n", def.name, v, def.unit, ff)
		}
		res.Metrics[def.name] = metric{v, def.unit}
	}
	b.printChecks()
	return res, nil
}

func (b *bench) printChecks() {
	attempted, failed := failCount(b.runs)
	verdict := "ok"
	if len(b.errs) > 0 {
		verdict = fmt.Sprintf("FAILED (%d checks)", len(b.errs))
	}
	fmt.Fprintf(&b.report, "  correctness: %s; %d of %d cells failed\n", verdict, failed, attempted)
}

func (b *bench) traced(d time.Duration, traceDir string) (result, error) {
	cells := b.prepare()
	cost := clockCost()
	var (
		passes   []tracePass
		metrics  []map[string]float64
		log      spanLog
		traceErr error
	)
	reps := b.measure(d, cells, func(i int, r rep) {
		if traceErr != nil {
			return
		}
		runtime.GC()
		p, err := runTracePass(b.spec.exps, b.rc, b.parallel)
		if err != nil {
			traceErr = err
			return
		}
		want := r.passes[0].stdout
		if b.spec.isolate {
			want = b.ref.stdout
		}
		ok := p.failures == 0 && bytes.Equal(p.output, want)
		if p.failures > 0 {
			b.fail("traced pass %d: %d cells or renders failed", i, p.failures)
		} else if !ok {
			b.fail("traced pass %d: rendered output differs from the untraced run", i)
		}
		b.runs = append(b.runs, runOutcome{cells: cells, correct: ok})
		passes = append(passes, p)
		metrics = append(metrics, passMetrics(p, b.parallel, cost))
		log.record(i, p, cost)
	})
	if traceErr != nil {
		return result{}, traceErr
	}
	for i := 1; i < len(metrics); i++ {
		for _, name := range simCountNames {
			if metrics[i][name] != metrics[0][name] {
				b.fail("traced pass %d: simulated %s = %v, pass 0 had %v", i, name, metrics[i][name], metrics[0][name])
			}
		}
	}

	vals := map[string][]float64{}
	for _, m := range metrics {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	var untracedWall, tracedWall []float64
	for _, p := range passes {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	if b.spec.isolate {
		untracedWall = []float64{b.ref.wall.Seconds()}
		for _, r := range reps {
			cold, resume := r.passes[0], r.passes[1]
			var over []float64
			for key, t := range cold.cellTime {
				over = append(over, ms(t-b.ref.cellTime[key]))
			}
			vals["farm.overhead_ms_per_cell"] = append(vals["farm.overhead_ms_per_cell"], median(over))
			vals["farm.resume_ms"] = append(vals["farm.resume_ms"], ms(resume.wall))
			vals["farm.store_hits"] = append(vals["farm.store_hits"], float64(resume.farm.storeHits))
			vals["farm.computed"] = append(vals["farm.computed"], float64(cold.farm.computed))
			vals["farm.retries"] = append(vals["farm.retries"], float64(cold.farm.retries+resume.farm.retries))
		}
	} else {
		for _, r := range reps {
			untracedWall = append(untracedWall, r.wall.Seconds())
		}
	}
	if u := median(untracedWall); u > 0 {
		vals["trace.overhead_frac"] = []float64{median(tracedWall)/u - 1}
	}

	res := result{Metrics: map[string]metric{}}
	fmt.Fprintf(&b.report, "perfbench %s (traced): seed %d, %d traced passes, each beside an untraced run; clock cost %v per timed call, one call in %d timed\n",
		b.spec.name, b.rc.Seed, len(passes), cost, sampleEvery)
	for _, def := range perLayerDefs() {
		v := median(vals[def.name])
		res.Metrics[def.name] = metric{v, def.unit}
		fmt.Fprintf(&b.report, "  %-42s %16.4f %s\n", def.name, v, def.unit)
	}
	fmt.Fprintf(&b.report, "  (cell_ms_hi is p%g of %d cells)\n", tailPercentile(cells), cells)
	m := func(k string) float64 { return res.Metrics[k].Value }
	fmt.Fprintf(&b.report, "  layer budget: cells %.1f ms = workload %.1f + cmpsim %.1f + l2 %.1f + install %.1f + unattributed %.1f; trace.overhead_frac %.3f\n",
		m("budget.cell_ms_sum"), m("budget.workload_ms"), m("budget.cmpsim_ms"), m("budget.l2_ms"),
		m("budget.install_ms"), m("budget.unattributed_ms"), m("trace.overhead_frac"))
	b.printChecks()
	if traceDir != "" {
		if err := writeSpans(traceDir, b.spec.name, b.rc.Seed, cost, log); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// writeSpans writes the traced passes' spans as one JSON document.
func writeSpans(dir, workload string, seed uint64, cost time.Duration, log spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed,
		"sample_every": sampleEvery, "clock_cost_ns": int64(cost),
		"spans": log.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
