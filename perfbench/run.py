#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from the checkout's sources into .bench_build/,
runs one workload, checks that it reported every metric BENCHMARK.json
names for the mode (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1) with the declared unit, and prints the result as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the traced round's spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def build():
    for needed in ("dune-project", os.path.join("lib", "dbtree", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("the dB-tree sources are missing (no %s); run from a full checkout" % needed)
    # Keep everything dune writes inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD_DIR, "xdg-cache"),
               XDG_STATE_HOME=os.path.join(BUILD_DIR, "xdg-state"))
    env.pop("INSIDE_DUNE", None)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        code, _, _ = run(cmd, BUILD_TIMEOUT_S, env=env, cwd=ROOT,
                         stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("dune is not installed")
    if code != 0 or not os.path.exists(EXE):
        die("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    code, out, _ = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        die("bench.exe exited with code %d" % code)
    result = json.loads(lines[-1])
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in got:
            die("metric %s missing from the output" % name)
        if got[name]["unit"] != m["unit"]:
            die("metric %s reported in %s, declared in %s"
                % (name, got[name]["unit"], m["unit"]))
        metrics[name] = got[name]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
