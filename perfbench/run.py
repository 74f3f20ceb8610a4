#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload music-2000 --seed 0 --seconds 5 --trace 0

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into .bench_build, or into $CARGO_TARGET_DIR when that is set; later calls
let CMake rebuild what changed. The workload then runs in its own process.
Its output passes through unchanged. The last line is one JSON object with the
keys correct, attempted, failed and metrics. That line is printed only when
it names exactly the metrics BENCHMARK.json declares for the mode: the
end_to_end metrics with --trace 0, the per_layer ones with --trace 1.
A traced run also writes a Chrome trace-event file to
<build dir>/trace/<workload>-seed<seed>.json.

Exit status: 0 with a result line; non-zero, without one, when the build,
the run or the result check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the measuring program; CMake rebuilds
    only what changed."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "Makefile").exists() and not (build_dir / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", "-DMULTIEM_NATIVE_ARCH=ON"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the problem with a result line, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last output line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result does not have exactly correct/attempted/failed/metrics"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, or a unit differs"
    if result["attempted"] < 1:
        return "no operation was attempted"
    return None


def run_measurement(command):
    """Runs the measuring program; returns its stdout and exit status.

    The program is stopped, and waited for, when it overruns or when this
    script is terminated.
    """
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    return stdout, child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        fail(f"build failed: {err}")

    trace_dir = build_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [
        str(build_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json"),
        "--git-sha", git_sha(),
    ]
    stdout, returncode = run_measurement(command)
    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if returncode != 0:
        fail(f"the run exited with status {returncode}")
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        print(lines[-1], file=sys.stderr)
        fail(problem)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
