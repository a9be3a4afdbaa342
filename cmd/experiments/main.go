// Command experiments regenerates the paper's evaluation tables and
// figures. Run with -exp all (default) or a comma-separated subset:
//
//	experiments -exp table1,fig5,fig10 -instr 3000000
//
// The requested experiments first declare every (design, workload)
// simulation they need; a bounded worker pool (-parallel, default one
// worker per CPU) runs those cells concurrently, then the tables are
// rendered in fixed order from the completed cache. Tables go to
// stdout; per-cell progress and timing go to stderr, so stdout is
// byte-identical at any -parallel level (see docs/PARALLEL.md).
//
// With -isolate each cell runs in a supervised worker subprocess
// (docs/ROBUSTNESS.md): a crashed or hung worker is killed and retried
// (-retries, -cell-timeout) with seeded exponential backoff, and
// completed cells are cached in a durable checksummed result store
// (-store DIR / -no-store) so re-running an interrupted sweep is
// incremental. Stdout stays byte-identical to an in-process run.
// -worker-cell is the internal worker mode the coordinator spawns; it
// speaks length-prefixed JSON on stdin/stdout and renders nothing.
//
// A failing simulation (watchdog abort, cycle-ceiling abort, invariant
// violation, worker crash after its retry budget) does not take down
// the run: the failed cells' experiments render as ERR lines, a
// failure report follows the tables, and the process exits 1.
// -failfast restores abort-on-first-failure; the -max-cycles ceiling
// bounds every simulation phase. Exit codes: 0 success, 1 cell or
// render failures, 2 usage errors, 3 worker-protocol errors (worker
// mode only).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/farm"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/simguard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) made
// explicit so the CLI tests can drive it.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps = fs.String("exp", "all", "comma-separated experiments, or all: "+
			strings.Join(experiments.ExperimentNames(), ", ")+
			" (ablations and sensitivity sweeps are opt-in, not part of all)")
		instr    = fs.Uint64("instr", 3_000_000, "measured instructions per core")
		warmup   = fs.Int("warmup", 5_000_000, "warm-up instructions per core")
		seed     = fs.Uint64("seed", 42, "workload seed")
		format   = fs.String("format", "text", "output format: text or csv")
		parallel = fs.Int("parallel", experiments.DefaultParallelism(),
			"max concurrent simulations (1 = sequential; output is identical either way)")
		quiet     = fs.Bool("quiet", false, "suppress per-cell progress lines on stderr")
		maxCycles = fs.Int64("max-cycles", 0,
			"hard clock ceiling per simulation phase in cycles (0 derives one from the instruction budget)")
		failFast = fs.Bool("failfast", false,
			"abort on the first failed simulation instead of running the remaining cells")
		isolate = fs.Bool("isolate", false,
			"run each cell in a supervised worker subprocess (crash isolation, retries, result store)")
		retries = fs.Int("retries", 2,
			"per-cell retry budget for crashed or timed-out workers (requires -isolate)")
		cellTimeout = fs.Duration("cell-timeout", 0,
			"per-attempt wall-clock ceiling for a worker, e.g. 2m (0 = none; requires -isolate)")
		storeDir = fs.String("store", "",
			"result-store directory (requires -isolate; default: the user cache dir, for versioned builds)")
		noStore = fs.Bool("no-store", false,
			"disable the result store (requires -isolate)")
		chaosKill = fs.Float64("chaos-kill-frac", 0,
			"chaos testing: SIGKILL this fraction of first worker attempts mid-cell (requires -isolate)")
		chaosStall = fs.Float64("chaos-stall-frac", 0,
			"chaos testing: stall this fraction of first worker attempts until -cell-timeout (requires -isolate)")
		workerCell = fs.String("worker-cell", "",
			"internal: run a single cell as a farm worker speaking frames on stdin/stdout")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to `FILE`")
		memProfile = fs.String("memprofile", "", "write a heap profile at the end of the run to `FILE`")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "experiments: invalid -format %q (valid: text, csv)\n", *format)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "experiments: -parallel must be at least 1, got %d\n", *parallel)
		return 2
	}
	if *maxCycles < 0 {
		fmt.Fprintf(stderr, "experiments: -max-cycles must be non-negative, got %d\n", *maxCycles)
		return 2
	}
	if !*isolate && *workerCell == "" {
		// The farm flags only mean something when the farm runs; a flag
		// that silently does nothing would hide a misconfigured sweep.
		farmOnly := map[string]bool{
			"retries": true, "cell-timeout": true, "store": true,
			"no-store": true, "chaos-kill-frac": true, "chaos-stall-frac": true,
		}
		bad := ""
		fs.Visit(func(f *flag.Flag) {
			if farmOnly[f.Name] && bad == "" {
				bad = f.Name
			}
		})
		if bad != "" {
			fmt.Fprintf(stderr, "experiments: -%s requires -isolate\n", bad)
			return 2
		}
	}
	if *retries < 0 {
		fmt.Fprintf(stderr, "experiments: -retries must be non-negative, got %d\n", *retries)
		return 2
	}
	if *cellTimeout < 0 {
		fmt.Fprintf(stderr, "experiments: -cell-timeout must be non-negative, got %v\n", *cellTimeout)
		return 2
	}
	if *storeDir != "" && *noStore {
		fmt.Fprintln(stderr, "experiments: -store and -no-store are mutually exclusive")
		return 2
	}
	if *chaosKill < 0 || *chaosKill > 1 || *chaosStall < 0 || *chaosStall > 1 {
		fmt.Fprintln(stderr, "experiments: chaos fractions must be in [0, 1]")
		return 2
	}
	if *chaosStall > 0 && *cellTimeout == 0 {
		fmt.Fprintln(stderr, "experiments: -chaos-stall-frac requires a -cell-timeout to recover stalled workers")
		return 2
	}
	selected, err := experiments.Select(*exps)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	defer stopProfiles()

	rc := experiments.RunConfig{
		WarmupInstr: *warmup, Instructions: *instr, Seed: *seed,
		MaxCycles: memsys.CyclesOf(int(*maxCycles)),
	}
	rc.Validate()

	if *workerCell != "" {
		return workerMain(*workerCell, rc, selected, stdin, stdout, stderr)
	}

	eval := experiments.NewEval(rc)

	// Phase 1: plan and execute every simulation cell concurrently —
	// in-process, or on the farm's worker subprocesses with -isolate.
	// Failing cells become CellFailures; the rest keep running.
	cells := experiments.Plan(selected, eval)
	start := time.Now()
	var progress experiments.Progress
	if !*quiet {
		progress = func(done, total int, key string, elapsed time.Duration) {
			fmt.Fprintf(stderr, "[%d/%d] %s (%v)\n", done, total, key, elapsed.Round(time.Millisecond))
		}
	}
	var failures []experiments.CellFailure
	if *isolate {
		sup, code := newSupervisor(farmOptions{
			exps: *exps, instr: *instr, warmup: *warmup, seed: *seed,
			maxCycles: memsys.CyclesOf(int(*maxCycles)), retries: *retries, timeout: *cellTimeout,
			storeDir: *storeDir, noStore: *noStore,
			chaosKill: *chaosKill, chaosStall: *chaosStall,
		}, rc, eval, stderr)
		if sup == nil {
			return code
		}
		failures = experiments.ExecuteCellsOn(sup, cells, *parallel, *failFast, progress)
		st := sup.Stats()
		fmt.Fprintf(stderr, "farm: %d cells: %d store hits, %d computed, %d retries, %d kills, %d timeouts, %d failed\n",
			st.Cells, st.StoreHits, st.Computed, st.Retries, st.KilledAttempts, st.Timeouts, st.Failed)
	} else {
		failures = experiments.ExecuteCells(cells, *parallel, *failFast, progress)
	}
	if !*quiet && len(cells) > 0 {
		fmt.Fprintf(stderr, "%d simulations in %v (-parallel %d)\n",
			len(cells), time.Since(start).Round(time.Millisecond), *parallel)
	}
	if *failFast && len(failures) > 0 {
		reportFailures(stdout, stderr, failures)
		return 1
	}

	// Phase 2: render from the warm cache in registry order. An
	// experiment whose cells are poisoned renders as an ERR line; the
	// healthy experiments still print in full.
	reported := map[string]bool{}
	for _, f := range failures {
		reported[f.Diagnostic] = true
	}
	for _, ex := range selected {
		t0 := time.Now()
		var rendered string
		f := experiments.CapturePanic(ex.Name, func() {
			switch {
			case ex.Table != nil:
				t := ex.Table(eval)
				if *format == "csv" {
					rendered = t.CSV()
				} else {
					rendered = t.String()
				}
			default:
				rendered = ex.Text(eval)
			}
		})
		if f != nil {
			fmt.Fprintf(stdout, "ERR %s: %s\n\n", ex.Name, firstLine(f.Diagnostic))
			// A render failure caused by an already-reported cell
			// failure carries the same diagnostic; only new ones add to
			// the report.
			if !reported[f.Diagnostic] {
				reported[f.Diagnostic] = true
				failures = append(failures, *f)
			}
		} else {
			fmt.Fprintln(stdout, rendered)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[%s rendered in %v]\n", ex.Name, time.Since(t0).Round(time.Millisecond))
		}
	}
	if len(failures) > 0 {
		reportFailures(stdout, stderr, failures)
		return 1
	}
	return 0
}

// startProfiles opens the -cpuprofile and -memprofile files (either
// path may be empty) and starts the CPU profile. The returned stop
// ends it and writes the heap profile. Profiles go to their files,
// never to stdout, so the rendered bytes do not change.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (stop func(), err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: -cpuprofile:", err)
			}
		}
		if mem != nil {
			runtime.GC() // the profile then shows the heap as of the end of the run
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "experiments: -memprofile:", err)
			}
		}
	}, nil
}

// farmOptions carries the flag values the supervisor needs.
type farmOptions struct {
	exps                  string
	instr                 uint64
	warmup                int
	seed                  uint64
	maxCycles             memsys.Cycles
	retries               int
	timeout               time.Duration
	storeDir              string
	noStore               bool
	chaosKill, chaosStall float64
}

// newSupervisor builds the farm supervisor for this run: the result
// store (unless disabled), the worker command line, and the chaos
// injectors. A nil supervisor means a usage-level failure; the second
// return is the exit code.
func newSupervisor(o farmOptions, rc experiments.RunConfig, eval *experiments.Eval, stderr io.Writer) (*farm.Supervisor, int) {
	var store *farm.Store
	if !o.noStore {
		dir, version := o.storeDir, farm.CodeVersion()
		switch {
		case dir != "":
			// An explicit -store must work or the run is misconfigured.
		case version == "unversioned":
			// Default store + unversioned build (go run, test binaries)
			// would serve stale results across code edits; force the
			// caller to opt in with an explicit directory.
			fmt.Fprintln(stderr, "farm: result store disabled for unversioned build (pass -store DIR to force)")
		default:
			d, err := farm.DefaultStoreDir()
			if err != nil {
				fmt.Fprintf(stderr, "farm: result store disabled: %v\n", err)
			} else {
				dir = d
			}
		}
		if dir != "" {
			s, err := farm.OpenStore(dir, rc.Digest(), version)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return nil, 2
			}
			store = s
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "experiments: cannot locate own binary for -isolate: %v\n", err)
		return nil, 2
	}
	fixed := []string{
		"-exp", o.exps,
		"-instr", fmt.Sprint(o.instr),
		"-warmup", fmt.Sprint(o.warmup),
		"-seed", fmt.Sprint(o.seed),
		"-max-cycles", fmt.Sprint(int64(o.maxCycles)),
	}
	var kill, stall func(key string, attempt int) bool
	if o.chaosKill > 0 {
		kill = simguard.WorkerKill(o.seed, o.chaosKill)
	}
	if o.chaosStall > 0 {
		stall = simguard.WorkerStall(o.seed, o.chaosStall)
	}
	return farm.New(farm.Config{
		Retries: o.retries,
		Timeout: o.timeout,
		Seed:    o.seed,
		Store:   store,
		NewWorkerCmd: func(key string) *exec.Cmd {
			// -worker-cell first: the test binary's TestMain dispatches
			// on it before the testing framework parses flags.
			return exec.Command(exe, append([]string{"-worker-cell", key}, fixed...)...)
		},
		Install: func(_ string, payload []byte) error { return eval.ImportPayload(payload) },
		Fail:    eval.InstallFailure,
		Log:     stderr,
		Kill:    kill,
		Stall:   stall,
	}), 0
}

// workerMain is the farm worker mode: read one request frame from
// stdin, run the named cell, answer with one response frame — a
// serialized result payload or a structured failure — and exit.
// Nothing else is written to stdout. Exit 0 means a frame was written
// (even for a failed cell: that failure is data, not a crash); exit 3
// means the protocol itself broke.
func workerMain(key string, rc experiments.RunConfig, selected []experiments.Experiment, stdin io.Reader, stdout, stderr io.Writer) int {
	var req farm.Request
	if err := farm.ReadFrame(stdin, &req); err != nil {
		fmt.Fprintln(stderr, "experiments: worker:", err)
		return 3
	}
	if req.Key != key {
		fmt.Fprintf(stderr, "experiments: worker for %q got request for %q\n", key, req.Key)
		return 3
	}
	if req.Stall {
		// Injected stall (simguard.WorkerStall): hang mid-cell until
		// the coordinator's -cell-timeout kills us.
		for {
			time.Sleep(time.Hour)
		}
	}
	eval := experiments.NewEval(rc)
	resp := farm.Response{Key: key}
	var cell *experiments.Cell
	for _, c := range experiments.Plan(selected, eval) {
		if c.Key == key {
			cell = &c
			break
		}
	}
	if cell == nil {
		resp.Failure = &farm.Failure{
			Diagnostic: fmt.Sprintf("experiments: worker: no cell %q in this selection", key),
		}
	} else if f := experiments.CapturePanic(key, cell.Run); f != nil {
		resp.Failure = &farm.Failure{Diagnostic: f.Diagnostic, Stack: f.Stack}
	} else if payload, err := eval.ExportPayload(); err != nil {
		resp.Failure = &farm.Failure{Diagnostic: err.Error()}
	} else {
		resp.Payload = payload
	}
	if err := farm.WriteFrame(stdout, resp); err != nil {
		fmt.Fprintln(stderr, "experiments: worker:", err)
		return 3
	}
	return 0
}

// reportFailures prints the failure report — one entry per failed cell
// with its full diagnostic — to stdout after the tables, and the
// captured stacks to stderr (they are debugging detail, not results).
func reportFailures(stdout, stderr io.Writer, failures []experiments.CellFailure) {
	fmt.Fprintf(stdout, "FAILURE REPORT: %d failed\n", len(failures))
	for _, f := range failures {
		fmt.Fprintf(stdout, "  %s: %s\n", f.Key, indentLines(f.Diagnostic))
		if f.Stack != "" {
			fmt.Fprintf(stderr, "--- stack for %s ---\n%s\n", f.Key, f.Stack)
		}
	}
}

// firstLine truncates a multi-line diagnostic for the inline ERR line.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// indentLines keeps a multi-line diagnostic aligned under its report
// entry.
func indentLines(s string) string {
	return strings.ReplaceAll(s, "\n", "\n    ")
}
