#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 perfbench/run.py --workload compile|paper-sweep|traffic \
        --seed N --seconds S --trace 0|1 [--trace-seed T]

Run from the root of a checkout. The script configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench, then runs the binary with a private, empty
native-artifact cache (NOL_CODEGEN_DIR) so every set-up pays host cc
cold. An untraced run is PROCESSES binary processes in turn, each
setting the workload up and timing passes for a share of --seconds:
pass_norm is the median of all their passes, setup_s the median of
their set-ups and peak_rss_mb the median of their peaks. The last line
of stdout is the JSON result; build output goes to stderr. Everything
the run writes stays under .bench_build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PROCESSES = 3       # binary processes per untraced run
RUN_TIMEOUT = 170   # seconds; a run must end within 180


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, env):
    """Configure (once) and build the binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no src/ here: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_binary(args, env, codegen_dir, deadline):
    """Run the binary once with its own empty artifact cache."""
    child_env = dict(env, NOL_CODEGEN_DIR=fresh_dir(codegen_dir))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time")
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, env=child_env,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out: " + " ".join(args))
    finally:
        shutil.rmtree(codegen_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("perfbench failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("perfbench printed no JSON result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "paper-sweep", "traffic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="traffic trace seed (default: the pinned 1987)")
    opts = parser.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT
    root = os.getcwd()
    work = os.path.join(root, ".bench_build")
    run_dir = os.path.join(work, "runs", str(os.getpid()))
    env = dict(os.environ, TMPDIR=fresh_dir(os.path.join(run_dir, "tmp")))
    try:
        binary = build(root, os.path.join(work, "perfbench"), env)
        # The build may take long on a fresh checkout; the run gets its
        # own budget from here.
        deadline = time.monotonic() + RUN_TIMEOUT
        args = [binary, "--workload", opts.workload,
                "--seed", str(opts.seed),
                "--reference", os.path.join(root, "perfbench", "reference")]
        if opts.trace_seed is not None:
            args += ["--trace-seed", str(opts.trace_seed)]

        if opts.trace:
            args += ["--trace", "1", "--trace-out",
                     os.path.join(work, "trace-%s-%d.json"
                                  % (opts.workload, opts.seed))]
            lines, result = run_binary(args, env,
                                       os.path.join(run_dir, "main"),
                                       deadline)
        else:
            args += ["--trace", "0",
                     "--seconds", str(opts.seconds / PROCESSES)]
            runs = [run_binary(args, env, os.path.join(run_dir, "p%d" % i),
                               deadline) for i in range(PROCESSES)]
            lines, result = pool(runs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in lines:
        print(line)
    result.pop("pass_norm_samples", None)
    print(json.dumps(result))


def pool(runs):
    """Merge the untraced processes' reports into one result."""
    lines, passes = [], []
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    samples = {}
    for i, (proc_lines, proc) in enumerate(runs):
        lines.append("process %d of %d" % (i + 1, len(runs)))
        lines += proc_lines
        result["correct"] = result["correct"] and proc["correct"]
        result["attempted"] += proc["attempted"]
        result["failed"] += proc["failed"]
        passes += proc["pass_norm_samples"]
        for name, metric in proc["metrics"].items():
            samples.setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    for name, (unit, values) in samples.items():
        value = statistics.median(passes if name == "pass_norm" else values)
        result["metrics"][name] = {"value": value, "unit": unit}
        lines.append("  %-34s %18.9g %s   (%s)" % (
            name, value, unit, " ".join("%.4g" % v for v in values)))
    return lines, result


if __name__ == "__main__":
    main()
