#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The runner compiles perfbench/ (which pulls in
the engine sources from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Its last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; the runner checks the names before printing the line. Span
files of traced runs go to .bench_out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("engine sources (src/) not found next to perfbench/", 2)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")
    want = expected_metrics(args.trace)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out_dir", str(out_dir)]
    started = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print(f"run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"no result line (exit code {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {[n for n in got if n in want and got[n] != want[n]]}")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
