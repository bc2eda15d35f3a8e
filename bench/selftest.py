"""Quick self-test of the benchmark: every workload at a tiny size.

Usage (from the repository root):  python3 bench/selftest.py

For each workload and for ``--trace 0`` and ``--trace 1`` it checks that
the last output line has exactly the result keys, that every metric
BENCHMARK.json declares is present with its unit and a finite value, and
that the outputs passed their checks with no failed op.  It repeats each
traced run with the same seed and requires the count metrics to repeat
exactly.  Finally it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's own files, where it must fail without
printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
COUNTS = (
    "weingarten.draws_per_sample",
    "parallel.pools_started",
    "sampling.profile_reads_per_sample",
    "phasespace.refused_inputs",
)


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, declared: dict[str, str]) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout[-2000:]
    assert set(result["metrics"]) == set(declared), set(result["metrics"]) ^ set(declared)
    for name, unit in declared.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (name, entry)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            first = result_of(run(ROOT, workload, trace), declared)
            if trace:
                again = result_of(run(ROOT, workload, trace), declared)
                for name in COUNTS:
                    assert first["metrics"][name] == again["metrics"][name], (workload, name)
            print(f"ok {workload} trace={trace}: {len(declared)} metrics", flush=True)

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    assert proc.returncode != 0, "benchmark succeeded without the package"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    shutil.rmtree(bare)
    print("ok a tree without the package fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
