#!/usr/bin/env python3
"""Build and run the loren benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (and through it the loren library from src/) with CMake
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary with the given arguments; `--workload all` runs every
workload in turn. Build output goes to stderr; the binary's stdout passes
through, so its last line is the JSON result. Exits non-zero when the
build fails or any check fails.
"""

import os
import subprocess
import sys
from pathlib import Path

# The binary bounds its own measuring; this is the hard stop on top.
RUN_TIMEOUT_S = 175
WORKLOADS = ["pool-churn", "fill-drain", "burst-grow", "crash-churn"]


def build(root: Path, build_dir: Path) -> bool:
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(root, build_dir):
        return 1
    span_dir = build_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    args = sys.argv[1:]
    if "--selftest" not in args:
        args += ["--span-dir", str(span_dir)]
    runs = [args]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        at = args.index("--workload") + 1
        runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    worst = 0
    for run in runs:
        sys.stdout.flush()
        try:
            proc = subprocess.run([str(build_dir / "perfbench")] + run,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        worst = worst or proc.returncode
    return worst


if __name__ == "__main__":
    sys.exit(main())
