package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// procRun is one run of the cmd/experiments binary as seen from
// outside: its stdout, exit code and host costs, and the per-cell
// times its scheduler reports on stderr.
type procRun struct {
	stdout []byte
	exit   int
	wall   time.Duration // process start to exit, after the last table
	// setup is process start to the first cell starting, recovered from
	// each progress line's arrival time less the cell time it reports.
	setup time.Duration
	// cellTime is each cell's time as the scheduler measured it.
	cellTime map[string]time.Duration
	cellSum  time.Duration
	maxRSSKB int64 // largest peak RSS of the process and its workers
	farm     farmStats
}

// farmStats is the farm summary an -isolate run prints on stderr.
type farmStats struct {
	cells, storeHits, computed, retries, kills, timeouts, failed int
}

var (
	progressRe = regexp.MustCompile(`^\[(\d+)/(\d+)\] (\S+) \((.+)\)$`)
	farmRe     = regexp.MustCompile(`^farm: (\d+) cells: (\d+) store hits, (\d+) computed, (\d+) retries, (\d+) kills, (\d+) timeouts, (\d+) failed$`)
)

// runProc runs bin with args and waits for it. The error reports a
// process that could not be run or whose stderr did not parse; a
// non-zero exit is data, returned in exit.
func runProc(bin string, args ...string) (procRun, error) {
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return procRun{}, err
	}
	r := procRun{cellTime: map[string]time.Duration{}, setup: -1}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{}, fmt.Errorf("starting %s: %w", bin, err)
	}
	var diag []string
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		at := time.Since(start)
		line := sc.Text()
		if m := progressRe.FindStringSubmatch(line); m != nil {
			d, err := time.ParseDuration(m[4])
			if err != nil {
				return procRun{}, fmt.Errorf("progress line %q: %w", line, err)
			}
			r.cellTime[m[3]] = d
			r.cellSum += d
			if began := at - d; r.setup < 0 || began < r.setup {
				r.setup = began
			}
			continue
		}
		if m := farmRe.FindStringSubmatch(line); m != nil {
			v := make([]int, 7)
			for i := range v {
				v[i], _ = strconv.Atoi(m[i+1]) // the pattern admits digits only
			}
			r.farm = farmStats{v[0], v[1], v[2], v[3], v[4], v[5], v[6]}
			continue
		}
		if len(diag) < 20 {
			diag = append(diag, line)
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	r.wall = time.Since(start)
	var exitErr *exec.ExitError
	switch {
	case waitErr == nil:
	case errors.As(waitErr, &exitErr):
		r.exit = exitErr.ExitCode()
	default:
		return procRun{}, fmt.Errorf("waiting for %s: %w", bin, waitErr)
	}
	if scanErr != nil {
		return procRun{}, fmt.Errorf("reading stderr of %s: %w", bin, scanErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
	}
	r.stdout = stdout.Bytes()
	if r.exit != 0 {
		return r, fmt.Errorf("%s exited %d; stderr: %q", bin, r.exit, diag)
	}
	return r, nil
}
