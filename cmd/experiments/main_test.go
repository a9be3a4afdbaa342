package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles this test binary as the farm worker: -isolate runs
// spawn os.Executable() with -worker-cell as the first argument, which
// in tests is this binary. Dispatching before m.Run keeps the testing
// framework's own flag parsing out of the worker's way.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker-cell" {
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(""), &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestUnknownExperimentExitsNonZero covers the bug this PR fixes: a
// typo like -exp fig13 used to print nothing and exit 0.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-exp", "fig13")
	if code == 0 {
		t.Fatal("-exp fig13 exited 0")
	}
	if stdout != "" {
		t.Errorf("unexpected stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "fig13") {
		t.Errorf("stderr does not name the unknown experiment: %q", stderr)
	}
	for _, want := range []string{"fig5", "table1", "abl-promotion"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not list valid name %s: %q", want, stderr)
		}
	}
}

// TestEmptySelectionExitsNonZero: strings.Split("", ",") returns [""],
// so the old len(want)==0 guard was dead code and -exp "" fell through
// silently.
func TestEmptySelectionExitsNonZero(t *testing.T) {
	for _, spec := range []string{"", " ", ","} {
		_, stderr, code := runCLI(t, "-exp", spec)
		if code == 0 {
			t.Errorf("-exp %q exited 0", spec)
		}
		if !strings.Contains(stderr, "valid names") {
			t.Errorf("-exp %q: stderr does not list valid names: %q", spec, stderr)
		}
	}
}

// TestInvalidFormatRejected: -format used to accept any string and
// silently fall back to text.
func TestInvalidFormatRejected(t *testing.T) {
	_, stderr, code := runCLI(t, "-format", "yaml", "-exp", "table1")
	if code == 0 {
		t.Fatal("-format yaml exited 0")
	}
	if !strings.Contains(stderr, "yaml") || !strings.Contains(stderr, "csv") {
		t.Errorf("stderr does not explain valid formats: %q", stderr)
	}
}

func TestInvalidParallelRejected(t *testing.T) {
	_, stderr, code := runCLI(t, "-parallel", "0", "-exp", "table1")
	if code == 0 {
		t.Fatal("-parallel 0 exited 0")
	}
	if !strings.Contains(stderr, "parallel") {
		t.Errorf("stderr does not mention -parallel: %q", stderr)
	}
}

// TestParallelOutputMatchesSequential is the scheduler's end-to-end
// determinism contract at the CLI surface: the same selection at
// -parallel 1 and -parallel 8 must write byte-identical stdout. Runs
// at tiny scale so the race-short gate exercises the concurrent path.
func TestParallelOutputMatchesSequential(t *testing.T) {
	args := []string{"-exp", "table1,table3,fig7", "-warmup", "30000", "-instr", "30000", "-quiet"}
	seqOut, _, seqCode := runCLI(t, append(args, "-parallel", "1")...)
	parOut, _, parCode := runCLI(t, append(args, "-parallel", "8")...)
	if seqCode != 0 || parCode != 0 {
		t.Fatalf("exit codes: sequential %d, parallel %d", seqCode, parCode)
	}
	if seqOut != parOut {
		t.Errorf("parallel stdout differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}
	if !strings.Contains(seqOut, "Figure 7") || !strings.Contains(seqOut, "Table 3") {
		t.Errorf("selection did not render the requested tables:\n%s", seqOut)
	}
}

// TestProgressOnStderr: cell progress and render timings go to stderr,
// never stdout (stdout must stay byte-identical across -parallel).
func TestProgressOnStderr(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-exp", "fig7", "-warmup", "20000", "-instr", "20000", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "[1/") || !strings.Contains(stderr, "rendered in") {
		t.Errorf("stderr missing progress lines: %q", stderr)
	}
	if strings.Contains(stdout, "rendered in") || strings.Contains(stdout, "[1/") {
		t.Error("progress leaked onto stdout")
	}
}

// TestProfileFlagsKeepStdout: -cpuprofile and -memprofile write
// non-empty profiles and leave stdout byte-identical.
func TestProfileFlagsKeepStdout(t *testing.T) {
	args := []string{"-exp", "table1,fig7", "-warmup", "20000", "-instr", "20000", "-parallel", "2", "-quiet"}
	plainOut, _, plainCode := runCLI(t, args...)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	profOut, stderr, profCode := runCLI(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if plainCode != 0 || profCode != 0 {
		t.Fatalf("exit codes: plain %d, profiled %d\nstderr: %s", plainCode, profCode, stderr)
	}
	if profOut != plainOut {
		t.Errorf("profiling changed stdout:\n--- plain ---\n%s\n--- profiled ---\n%s", plainOut, profOut)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: profile missing or empty (%v)", filepath.Base(path), err)
		}
	}
	_, stderr, code := runCLI(t, "-exp", "table1", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"))
	if code != 2 || !strings.Contains(stderr, "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: exit %d, stderr %q; want exit 2 naming the flag", code, stderr)
	}
}

// TestCSVFormat: -format csv renders tables as CSV on stdout.
func TestCSVFormat(t *testing.T) {
	stdout, _, code := runCLI(t, "-exp", "table1", "-format", "csv", "-quiet")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(stdout, ",") || !strings.Contains(stdout, "Latency") {
		t.Errorf("csv output suspicious:\n%s", stdout)
	}
}

// TestNegativeMaxCyclesIsUsageError: flag validation failures are
// usage errors (exit 2), distinct from cell failures (exit 1).
func TestNegativeMaxCyclesIsUsageError(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-max-cycles", "-1", "-exp", "table1")
	if code != 2 {
		t.Fatalf("-max-cycles -1 exited %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("usage error wrote to stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "max-cycles") {
		t.Errorf("stderr does not name the bad flag: %q", stderr)
	}
}

// TestCellFailureStillRendersOthers is the graceful-degradation
// contract: a tiny -max-cycles ceiling fails every fig7 simulation,
// but table1 (a static table with no cells) must still render, the
// failed experiment must show an ERR line plus a failure report on
// stdout, the stacks must land on stderr, and the exit code must be 1.
func TestCellFailureStillRendersOthers(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-exp", "table1,fig7", "-warmup", "500", "-instr", "500",
		"-max-cycles", "500", "-quiet")
	if code != 1 {
		t.Fatalf("run with failing cells exited %d, want 1", code)
	}
	if !strings.Contains(stdout, "Table 1") {
		t.Errorf("healthy table1 did not render:\n%s", stdout)
	}
	if !strings.Contains(stdout, "ERR fig7:") {
		t.Errorf("failed experiment missing its ERR line:\n%s", stdout)
	}
	if strings.Contains(stdout, "Figure 7") {
		t.Error("failed fig7 rendered a table anyway")
	}
	if !strings.Contains(stdout, "FAILURE REPORT:") ||
		!strings.Contains(stdout, "simguard: cycle limit exceeded") {
		t.Errorf("failure report missing or unstructured:\n%s", stdout)
	}
	if !strings.Contains(stdout, "explicit MaxCycles") {
		t.Errorf("diagnostic does not attribute the explicit ceiling:\n%s", stdout)
	}
	if !strings.Contains(stderr, "--- stack for ") ||
		!strings.Contains(stderr, "cmpsim") {
		t.Errorf("stacks missing from stderr:\n%s", stderr)
	}
}

// TestFailFastAbortsBeforeRendering: -failfast restores the old
// abort-on-first-failure behaviour — no tables render at all.
func TestFailFastAbortsBeforeRendering(t *testing.T) {
	stdout, _, code := runCLI(t,
		"-exp", "table1,fig7", "-warmup", "500", "-instr", "500",
		"-max-cycles", "500", "-failfast", "-quiet")
	if code != 1 {
		t.Fatalf("failfast run exited %d, want 1", code)
	}
	if strings.Contains(stdout, "Table 1") {
		t.Errorf("failfast rendered tables after a failure:\n%s", stdout)
	}
	if !strings.Contains(stdout, "FAILURE REPORT:") {
		t.Errorf("failfast run missing failure report:\n%s", stdout)
	}
}

// TestMaxCyclesHeadroomIsHarmless: a generous explicit ceiling leaves
// a healthy run untouched — same bytes as no ceiling at all.
func TestMaxCyclesHeadroomIsHarmless(t *testing.T) {
	args := []string{"-exp", "table1", "-quiet"}
	plain, _, c1 := runCLI(t, args...)
	capped, _, c2 := runCLI(t, append(args, "-max-cycles", "1000000000")...)
	if c1 != 0 || c2 != 0 {
		t.Fatalf("exit codes %d, %d", c1, c2)
	}
	if plain != capped {
		t.Error("a non-binding -max-cycles changed the output")
	}
}

// tinyArgs is the shared tiny-scale selection the farm CLI tests run:
// a static table, a derived table, and a figure with simulation cells,
// small enough that a worker subprocess finishes in well under a
// second.
var tinyArgs = []string{"-exp", "table1,table3,fig7", "-warmup", "30000", "-instr", "30000", "-quiet"}

// TestIsolateMatchesInProcess is the farm's core contract at the CLI
// surface: -isolate routes every cell through worker subprocesses and
// the serialization codec, yet stdout must be byte-identical to the
// in-process run.
func TestIsolateMatchesInProcess(t *testing.T) {
	inOut, _, inCode := runCLI(t, append(tinyArgs, "-parallel", "4")...)
	isoOut, isoErr, isoCode := runCLI(t, append(tinyArgs, "-parallel", "4", "-isolate", "-no-store")...)
	if inCode != 0 || isoCode != 0 {
		t.Fatalf("exit codes: in-process %d, isolate %d\nisolate stderr: %s", inCode, isoCode, isoErr)
	}
	if inOut != isoOut {
		t.Errorf("-isolate stdout differs from in-process:\n--- in-process ---\n%s\n--- isolate ---\n%s", inOut, isoOut)
	}
	if !strings.Contains(isoErr, "farm: ") {
		t.Errorf("isolate run missing farm summary on stderr: %q", isoErr)
	}
}

// TestIsolateChaosKillStillCompletes: with every first worker attempt
// SIGKILLed mid-cell, the retries must carry the sweep to exit 0 with
// stdout byte-identical to an undisturbed in-process run.
func TestIsolateChaosKillStillCompletes(t *testing.T) {
	inOut, _, inCode := runCLI(t, append(tinyArgs, "-parallel", "4")...)
	isoOut, isoErr, isoCode := runCLI(t, append(tinyArgs,
		"-parallel", "4", "-isolate", "-no-store", "-chaos-kill-frac", "1", "-retries", "3")...)
	if inCode != 0 || isoCode != 0 {
		t.Fatalf("exit codes: in-process %d, chaos %d\nchaos stderr: %s", inCode, isoCode, isoErr)
	}
	if inOut != isoOut {
		t.Errorf("chaos-kill stdout differs from in-process:\n--- in-process ---\n%s\n--- chaos ---\n%s", inOut, isoOut)
	}
}

// TestIsolateRetriesZeroSurfacesCrash: with the retry budget at zero, a
// killed worker's crash is a permanent CellFailure — reported on stdout
// with the farm's give-up diagnostic and exit 1, while cell-free
// experiments still render.
func TestIsolateRetriesZeroSurfacesCrash(t *testing.T) {
	stdout, stderr, code := runCLI(t, append(tinyArgs,
		"-isolate", "-no-store", "-chaos-kill-frac", "1", "-retries", "0")...)
	if code != 1 {
		t.Fatalf("chaos run with -retries 0 exited %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "FAILURE REPORT:") ||
		!strings.Contains(stdout, "gave up after 1 attempt") {
		t.Errorf("failure report missing the farm give-up diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stdout, "Table 1") {
		t.Errorf("cell-free table1 did not render despite worker crashes:\n%s", stdout)
	}
}

// TestStoreResumeServesHitsByteIdentically: an -isolate sweep populates
// the store; rerunning it recomputes nothing, reports store hits, and
// writes the same bytes.
func TestStoreResumeServesHitsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	args := append(tinyArgs, "-isolate", "-store", dir)
	out1, err1, code1 := runCLI(t, args...)
	if code1 != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code1, err1)
	}
	if !strings.Contains(err1, ": 0 store hits") {
		t.Errorf("first run against an empty store reported hits: %q", err1)
	}
	out2, err2, code2 := runCLI(t, args...)
	if code2 != 0 {
		t.Fatalf("resumed run exited %d\nstderr: %s", code2, err2)
	}
	if strings.Contains(err2, ": 0 store hits") || !strings.Contains(err2, "store hits") {
		t.Errorf("resumed run served no store hits: %q", err2)
	}
	if !strings.Contains(err2, " 0 computed") {
		t.Errorf("resumed run recomputed cells despite a warm store: %q", err2)
	}
	if out1 != out2 {
		t.Errorf("store-served stdout differs from computed stdout:\n--- computed ---\n%s\n--- store ---\n%s", out1, out2)
	}
	// The store must never retain a partial entry under a temp name.
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil || len(tmps) != 0 {
		t.Errorf("store left temp files behind: %v (err %v)", tmps, err)
	}
}

// TestFarmFlagValidation: farm flags outside -isolate, malformed
// -cell-timeout values, and inconsistent combinations are usage errors
// (exit 2) that name the offending flag.
func TestFarmFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"retries without isolate", []string{"-retries", "1", "-exp", "table1"}, "requires -isolate"},
		{"store without isolate", []string{"-store", "/tmp/x", "-exp", "table1"}, "requires -isolate"},
		{"chaos without isolate", []string{"-chaos-kill-frac", "0.5", "-exp", "table1"}, "requires -isolate"},
		{"unparsable cell-timeout", []string{"-isolate", "-cell-timeout", "banana", "-exp", "table1"}, "cell-timeout"},
		{"negative cell-timeout", []string{"-isolate", "-cell-timeout", "-5s", "-exp", "table1"}, "cell-timeout"},
		{"negative retries", []string{"-isolate", "-retries", "-1", "-exp", "table1"}, "retries"},
		{"store and no-store", []string{"-isolate", "-store", "/tmp/x", "-no-store", "-exp", "table1"}, "mutually exclusive"},
		{"chaos frac out of range", []string{"-isolate", "-chaos-kill-frac", "1.5", "-exp", "table1"}, "[0, 1]"},
		{"stall without timeout", []string{"-isolate", "-chaos-stall-frac", "0.5", "-exp", "table1"}, "cell-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2\nstderr: %s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}

// TestWorkerModeProtocolErrorExitsThree: a worker whose stdin carries
// no valid request frame must not pretend to have run a cell — it
// reports the protocol error on stderr and exits 3.
func TestWorkerModeProtocolErrorExitsThree(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-worker-cell", "nosuch", "-exp", "table1"},
		strings.NewReader("this is not a frame"), &out, &errOut)
	if code != 3 {
		t.Fatalf("worker with garbage stdin exited %d, want 3\nstderr: %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("worker wrote to stdout despite protocol error: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "worker") {
		t.Errorf("stderr does not identify the worker failure: %q", errOut.String())
	}
}

// TestIsolateSeedSensitivityCells: sens-seed plans seed-namespaced
// cells that fill sub-evaluation caches; the worker payload path must
// route them back so the sensitivity text renders identically.
func TestIsolateSeedSensitivityCells(t *testing.T) {
	args := []string{"-exp", "sens-seed", "-warmup", "20000", "-instr", "20000", "-quiet"}
	inOut, _, inCode := runCLI(t, args...)
	isoOut, isoErr, isoCode := runCLI(t, append(args, "-isolate", "-no-store", "-parallel", "4")...)
	if inCode != 0 || isoCode != 0 {
		t.Fatalf("exit codes: in-process %d, isolate %d\nstderr: %s", inCode, isoCode, isoErr)
	}
	if inOut != isoOut {
		t.Errorf("seed-sensitivity stdout differs under -isolate:\n--- in-process ---\n%s\n--- isolate ---\n%s", inOut, isoOut)
	}
}
