"""Repeat the benchmark over several seeds and summarise its spread.

Usage (from the repository root):

    python3 bench/record.py --seeds 1-10 --workloads all --trace 0 \
        --out bench/results/BENCH_label.json

Runs ``bench/run.py`` once per (workload, seed) at the ``run_seconds`` of
BENCHMARK.json, one run at a time, and reports for every metric the
median, the quartiles and the spread (q3 - q1) / median that the bounds of
BENCHMARK.json are judged against.  An end-to-end metric is marked steady
when its spread is below a third of its bound (``setup_s`` has no spread
requirement); the exit code is 3 when any is not.  The summary, with the
provenance of the first run, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default="all", help="comma-separated, or all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="summary JSON to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": seed_list(args.seeds), "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in summary["seeds"]:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}", flush=True)
        block = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        for metric in declared:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = spread(values)
            stats["unit"] = metric["unit"]
            if "bound" in metric:
                stats["bound"] = metric["bound"]
                stats["steady"] = metric["name"] == "setup_s" or (
                    stats["spread"] is not None and stats["spread"] < metric["bound"] / 3.0)
                steady &= stats["steady"]
            block["metrics"][metric["name"]] = stats
            flag = {True: "steady", False: "NOT STEADY"}.get(stats.get("steady"), "")
            shown = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {metric['name']:42s} median {stats['median']:>12.6g} {metric['unit']:6s}"
                  f" spread {shown} {flag}", flush=True)
        summary["workloads"][name] = block
        first = ROOT / ".bench_work" / "results" / f"{name}-seed{summary['seeds'][0]}-trace{args.trace}.json"
        summary.setdefault("provenance", json.loads(first.read_text())["provenance"])
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
