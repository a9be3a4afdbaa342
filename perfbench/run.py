#!/usr/bin/env python3
"""Build the simulator and the benchmark from this checkout, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mt-figs --seed 42 --seconds 15 --trace 0

Everything the build and the runs write stays under .bench_build/ in
the checkout: the Go build cache, the two binaries, the result stores
of sweep-isolated and the traced run's spans (.bench_build/trace/).
The arguments are passed to the perfbench binary; see README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    """The environment for the go tool, with every cache inside BUILD."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build(env, pkg_dir, target, out):
    """go build target in pkg_dir into out; False (with the log on stderr) on failure."""
    proc = subprocess.run(
        ["go", "build", "-o", out, target],
        cwd=pkg_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        print("perfbench: building %s failed" % target, file=sys.stderr)
        return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no simulator sources (go.mod) in %s" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    for d in ("home", "tmp", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    experiments = os.path.join(BUILD, "bin", "experiments")
    perfbench = os.path.join(BUILD, "bin", "perfbench")
    if not build(env, ROOT, "./cmd/experiments", experiments):
        return 1
    if not build(env, HERE, ".", perfbench):
        return 1
    work = os.path.join(BUILD, "work", str(os.getpid()))
    args = [perfbench, "-experiments", experiments, "-root", ROOT, "-work", work,
            "-trace-dir", os.path.join(BUILD, "trace")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
