"""gausswork benchmark: Monte Carlo campaigns run through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a closed loop with one client: one campaign at a time,
each in a fresh interpreter (``bench/campaign.py``) with one OpenBLAS
thread, until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics declared in BENCHMARK.json; ``--trace 1`` reports the
per-layer metrics from a traced campaign next to untraced ones.  Every
output is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with the machine facts and provenance goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import VALIDATE_CHECKS, count_under, layer_totals
from workloads import REFUSAL_CODES, WORKLOADS, Validate

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 165.0
# Medians need a few campaigns even when --seconds is short.
MIN_CAMPAIGNS = 3
MIN_TRACE_SETS = 2


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no package, broken set-up)."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(spec: dict, result_path: Path, deadline: float) -> tuple[dict | None, float]:
    """Run one campaign process; returns (its result or None on time-out,
    the monotonic time just before it was started)."""
    spec_path = result_path.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(dict(spec, result=str(result_path))), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "campaign.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, spawned
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"campaign process exited {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8")), spawned


def run_campaign(workload, threads: int, result_path: Path, deadline: float,
                 trace: bool = False, count_pools: bool = False) -> dict:
    """One campaign: spawn, then check every call's output."""
    calls = workload.campaign(threads)
    spec = {"calls": [c.argv for c in calls], "procs": threads, "trace": trace,
            "count_pools": count_pools}
    result, spawned = spawn(spec, result_path, deadline)
    ops = sum(c.ops for c in calls)
    if result is None:
        return {"ops": ops, "failed": ops, "problems": ["campaign timed out"], "timed_out": True}
    failed, problems, refused = 0, [], {}
    for call, res in zip(calls, result["calls"]):
        rc = res["rc"]
        if rc == "raised":
            found = [f"{call.argv[0]} raised: {res['stderr'].strip().splitlines()[-1]}"]
        else:
            found = workload.check(call, rc, res["stdout"])
        if found:
            failed += call.ops
        elif rc in REFUSAL_CODES:
            refused[call.tag] = refused.get(call.tag, 0) + call.ops
        problems.extend(found)
    outputs = [p for c in calls for p in c.outputs if p.is_file()]
    return {
        "ops": ops,
        "failed": failed,
        "problems": problems,
        "refused": refused,
        "wall_s": sum(res["wall_s"] for res in result["calls"]),
        "ref_wall_s": sum(res["ref_wall_s"] for res in result["calls"]),
        "setup_s": result["ready"] - spawned,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "bytes_written": sum(p.stat().st_size for p in outputs),
        "csv_bytes": sum(p.stat().st_size for p in outputs if p.suffix == ".csv"),
        "trace": result.get("trace"),
    }


def warm_up(deadline: float) -> None:
    """Import the package once so byte-code caches exist before timing."""
    spec_dir = WORK / "warmup"
    spec_dir.mkdir(parents=True, exist_ok=True)
    result, _ = spawn({"calls": [], "procs": 1, "trace": False, "count_pools": False},
                      spec_dir / "result.json", deadline)
    if result is None:
        raise BenchError("importing gausswork timed out")


def unsuccessful(campaigns: list[dict]) -> int:
    """Ops that failed or whose legitimate input was refused."""
    return sum(c["failed"] + sum(c.get("refused", {}).values()) for c in campaigns)


def end_to_end(campaigns: list[dict], timed: list[dict]) -> dict[str, float]:
    attempted = sum(c["ops"] for c in campaigns)
    done = [c for c in timed if "wall_s" in c]
    if not done:
        raise BenchError("no campaign finished before the run's deadline")
    return {
        "ops_per_s": statistics.median(c["ops"] / c["ref_wall_s"] for c in done),
        "setup_s": statistics.median(c["setup_s"] for c in campaigns if "setup_s" in c),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
        "success_rate": (attempted - unsuccessful(campaigns)) / attempted,
    }


def per_layer(workload, base: dict, traced: dict, fan: dict | None) -> dict[str, float]:
    """Per-layer metrics of one trace set: an untraced campaign, the same
    campaign traced, and (sweep only) the untraced threads=2 campaign."""
    trace = traced["trace"]
    spans = trace["spans"]
    totals = layer_totals(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def self_us(name: str) -> float:
        entry = totals.get(name, zero)
        return entry["self_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0

    def self_s(name: str) -> float:
        return totals.get(name, zero)["self_s"]

    def total_s(name: str) -> float:
        return totals.get(name, zero)["total_s"]

    samples = workload.requested_samples
    per_sample = (lambda count: count / samples) if samples else (lambda count: 0.0)
    metrics = {
        "sampling.stream_us": self_us("sampling.stream"),
        "sampling.squeeze_us": self_us("sampling.squeeze"),
        "sampling.haar_us": self_us("sampling.haar"),
        "sampling.draw_us": self_us("sampling.draw"),
        "sampling.profile_reads_per_sample": per_sample(trace["counts"].get("sampling.profile_reads", 0)),
        "stats.record_us": self_us("stats.record"),
        "phasespace.sympl_us": self_us("phasespace.sympl"),
        "phasespace.check_us": self_us("phasespace.check"),
        "phasespace.purify_us": self_us("phasespace.purify"),
        "phasespace.refused_inputs": sum(traced["refused"].values()),
        "weingarten.measure_us": self_us("weingarten.measure"),
        "weingarten.draws_per_sample": per_sample(count_under(spans, "sampling.draw", "weingarten.moment")),
        "harness.aggregate_s": self_s("harness.sweep"),
        "harness.csv_s": total_s("harness.csv"),
        "harness.csv_bytes": traced["csv_bytes"],
        "parallel.pools_started": fan["trace"]["counts"].get("parallel.pools_started", 0) if fan else 0,
        "parallel.result_bytes": trace["result_bytes"] / trace["result_items"] if trace["result_items"] else 0.0,
        "parallel.overhead_s": fan["wall_s"] - base["wall_s"] / 2.0 if fan else 0.0,
        "parallel.speedup": base["wall_s"] / fan["wall_s"] if fan else 0.0,
        "cli.write_s": total_s("cli.write"),
        "cli.bytes_written": traced["bytes_written"],
        "trace.overhead_s": traced["wall_s"] - base["wall_s"],
    }
    for scale in Validate.SCALES:
        metrics[f"phasespace.refused_inputs.s{scale:g}"] = sum(
            n for tag, n in traced["refused"].items() if tag.endswith(f"-s{scale:g}")
        )
    for check in VALIDATE_CHECKS:
        metrics[f"validate.{check}_s"] = total_s(f"validate.{check}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work, tiny)
    warm_up(deadline)
    campaigns: list[dict] = []

    def campaign(threads: int, **kw) -> dict:
        path = work / f"campaign-{len(campaigns)}.json"
        done = run_campaign(workload, threads, path, deadline, **kw)
        campaigns.append(done)
        return done

    start = time.monotonic()
    if not trace:
        if name == "sweep":
            campaign(1)  # threads=1 reference for the byte-identity check
        timed = []
        while len(timed) < MIN_CAMPAIGNS or time.monotonic() - start < seconds:
            timed.append(campaign(2 if name == "sweep" else 1))
            if "timed_out" in timed[-1]:
                break
        metrics = end_to_end(campaigns, timed)
    else:
        sets = []
        while len(sets) < MIN_TRACE_SETS or time.monotonic() - start < seconds:
            base = campaign(1)
            traced = campaign(1, trace=True)
            fan = campaign(2, count_pools=True) if name == "sweep" else None
            if any("timed_out" in c for c in (base, traced, fan or {})):
                break
            if traced["trace"]["missing"]:
                print(f"warning: not traced, so read as 0: {traced['trace']['missing']}",
                      file=sys.stderr)
            sets.append(per_layer(workload, base, traced, fan))
        if not sets:
            raise BenchError("no traced campaign finished before the run's deadline")
        metrics = {key: statistics.median(s[key] for s in sets) for key in sets[0]}
        metrics["error_rate"] = unsuccessful(campaigns) / sum(c["ops"] for c in campaigns)
    problems = [p for c in campaigns for p in c["problems"]]
    return {
        "workload": name,
        "correct": not problems,
        "attempted": sum(c["ops"] for c in campaigns),
        "failed": sum(c["failed"] for c in campaigns),
        "metrics": metrics,
        "problems": problems[:20],
        "size": workload.size(),
        "campaigns": [{k: v for k, v in c.items() if k != "trace"} for c in campaigns],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_threads": PINNED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny campaign sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "gausswork" / "cli.py").is_file():
        print(f"benchmark error: no gausswork package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = provenance(args.seed, args.seconds, bool(args.trace), args.tiny)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for res in results:
        if set(res["metrics"]) != set(units):
            raise SystemExit(f"metrics {sorted(set(res['metrics']) ^ set(units))} "
                             "do not match BENCHMARK.json")
        out = WORK / "results" / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(dict(res, provenance=facts), indent=1) + "\n", encoding="utf-8")
        print(f"== {res['workload']}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  ({out})")
        for problem in res["problems"]:
            print(f"   problem: {problem}")
        for key in units:
            print(f"   {key:42s} {res['metrics'][key]:>14.6g} {units[key]}")
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
