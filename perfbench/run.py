#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The `perfbench` crate is compiled in
release mode (offline, into `$CARGO_TARGET_DIR`, default `.bench_build`)
and started once per call, so every workload runs in a process of its
own. Its output is passed through after a check that the last line is
the result object with exactly the metrics `BENCHMARK.json` declares for
the mode. Exits non-zero, without a result, when the build, the run or
that check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(argv, flag):
    try:
        return argv[argv.index(flag) + 1]
    except (ValueError, IndexError):
        fail(f"missing {flag}")


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    argv = sys.argv[1:]
    seconds = float(arg(argv, "--seconds"))
    trace = arg(argv, "--trace") == "1"
    arg(argv, "--workload")
    arg(argv, "--seed")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "perfbench")

    env["PERFBENCH_COMMIT"] = commit()
    try:
        run = subprocess.run(
            [binary] + argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=3 * seconds + 60,
        )
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(run.stdout)
        fail(f"no result line (exit code {run.returncode})")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stderr.write(run.stdout)
        fail("result does not match the metrics BENCHMARK.json declares")
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
