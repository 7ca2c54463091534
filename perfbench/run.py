#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the repository root.  Each call first builds the benchmark and
the `specstab` binary from source (Release) into the directory named by
CARGO_TARGET_DIR, or `.bench_build` when it is unset; the build is
incremental, so only the first call compiles.  Build output goes to
stderr.  The benchmark's report goes to stdout, and its last line is one
JSON object with the keys correct, attempted, failed and metrics.

--all runs every workload untraced and traced and prints every report.
--self-test runs the benchmark's own tests (see perfbench/README.md).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["sync-ssme-ring", "async-thm3-campaign", "serve-mixed"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds; returns the build directory or None."""
    out = build_dir()
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench", "perfbench_test", "specstab_cli"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return out


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return "git:" + proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_workload(out, workload, seed, seconds, trace):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--specstab", os.path.join(out, "specstab", "specstab")]
    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_rev())
    # Its own process group, so a server child left behind by a crash or
    # a timeout is stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(output)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.self_test):
        parser.error("give --workload, --all or --self-test")

    out = build()
    if out is None:
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(out, "perfbench_test"),
             os.path.join(out, "specstab", "specstab")], cwd=ROOT).returncode
    if args.all:
        status = 0
        for workload in WORKLOADS:
            for trace in (False, True):
                status |= run_workload(out, workload, args.seed,
                                       args.seconds, trace)
        return status
    return run_workload(out, args.workload, args.seed, args.seconds,
                        args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
