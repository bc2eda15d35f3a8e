"""The benchmark workloads: inputs made from the workload seed, the CLI
calls of one campaign, and the checks of their outputs.

Inputs are generated here with the benchmark's own numpy code, never the
package's, so they stay fixed while the code under test changes.  The
checks do not pin the sampled values (the random-stream scheme may
change); they test invariants that any correct sampler satisfies.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Bound on z-ratios used by the acceptance suite (tests/test_acceptance.py).
ACCEPTANCE_Z_BOUND = 4.0
# Slack of the per-sample work bound work <= sqrt(m * delta), as in stats.
WORK_BOUND_SLACK = 1e-9
# Exit codes of a documented refusal: 2 invalid input, 3 numerical failure.
REFUSAL_CODES = (2, 3)


@dataclass
class Call:
    """One ``gausswork`` command line of a campaign."""

    argv: list[str]
    ops: int
    outputs: list[Path] = field(default_factory=list)
    tag: str = ""


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _records(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _record_problems(rows: list[dict], m: int, nu_th: float) -> list[str]:
    """Per-record invariants: 0 <= work <= sqrt(m delta), and nu_th equal
    to the mean energy per ambient mode of the profile given."""
    for row in rows:
        work, delta = float(row["work"]), float(row["stat_delta"])
        if not 0.0 <= work <= math.sqrt(m * max(delta, 0.0)) + WORK_BOUND_SLACK:
            return [f"sample {row['sample_index']}: work {work!r} outside [0, sqrt(m delta)]"]
        if abs(float(row["nu_th"]) - nu_th) > 1e-12 * nu_th:
            return [f"sample {row['sample_index']}: nu_th {row['nu_th']} != {nu_th!r}"]
    return []


class Sweep:
    """The acceptance n-sweep at a campaign size that fits a run."""

    name = "sweep"
    GRID = (16, 32, 64, 128, 256)
    Z0 = 2.0
    M = 1

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        self.work = work
        self.master_seed = _master_seed(np.random.default_rng([seed, 1]))
        self.samples = 20 if tiny else 1000
        self.reference: bytes | None = None

    @property
    def requested_samples(self) -> int:
        return len(self.GRID) * self.samples

    def size(self) -> dict:
        return {"n_grid": list(self.GRID), "m": self.M, "z_profile": f"uniform:{self.Z0}",
                "samples_per_n": self.samples, "master_seed": self.master_seed}

    def campaign(self, threads: int = 2) -> list[Call]:
        out = self.work / f"sweep-t{threads}.json"
        argv = ["sweep", "--n-grid", ",".join(map(str, self.GRID)), "--m", str(self.M),
                "--z-profile", f"uniform:{self.Z0}", "--samples", str(self.samples),
                "--seed", str(self.master_seed), "--threads", str(threads),
                "--epsilon", "0.05,0.1", "--out", str(out)]
        return [Call(argv, self.requested_samples, [out, out.with_suffix(".csv")])]

    def check(self, call: Call, rc, stdout: str) -> list[str]:
        """The first checked summary (a threads=1 run) becomes the reference;
        every later summary must match it byte for byte."""
        if rc != 0:
            return [f"sweep exited {rc}"]
        summary_path, csv_path = call.outputs
        summary = summary_path.read_bytes()
        if self.reference is None:
            self.reference = summary
        elif summary != self.reference:
            return ["sweep JSON differs between threads=1 and threads=2"]
        per_n = json.loads(summary)["per_n"]
        if [b["n"] for b in per_n] != list(self.GRID) or any(
            b["samples"] != self.samples for b in per_n
        ):
            return ["sweep summary does not cover the requested grid"]
        rows = _records(csv_path.read_text(encoding="utf-8"))
        if len(rows) != self.requested_samples:
            return [f"sweep CSV has {len(rows)} records, expected {self.requested_samples}"]
        nu_th = (self.Z0**2 + self.Z0**-2) / 4.0
        return _record_problems(rows, self.M, nu_th)


class Moments:
    """The acceptance moment grid, single-threaded."""

    name = "moments"
    GRID = ((8, 1, 1.2), (16, 2, 1.3), (32, 1, 1.5))
    QUANTITIES = {"tr_gamma", "tr_gamma_sq", "tr_omega_gamma_sq"}

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        self.work = work
        rng = np.random.default_rng([seed, 2])
        self.master_seeds = [_master_seed(rng) for _ in self.GRID]
        self.samples = 50 if tiny else 1000

    @property
    def requested_samples(self) -> int:
        return len(self.GRID) * self.samples

    def size(self) -> dict:
        return {"grid": [list(g) for g in self.GRID], "samples": self.samples,
                "master_seeds": self.master_seeds}

    def campaign(self, threads: int = 1) -> list[Call]:
        calls = []
        for (n, m, z0), seed in zip(self.GRID, self.master_seeds):
            out = self.work / f"moments-{n}-{m}.json"
            argv = ["moments", "--n", str(n), "--m", str(m), "--z-profile", f"uniform:{z0}",
                    "--samples", str(self.samples), "--seed", str(seed),
                    "--threads", str(threads), "--out", str(out)]
            calls.append(Call(argv, self.samples, [out], tag=f"n{n}-m{m}"))
        return calls

    def check(self, call: Call, rc, stdout: str) -> list[str]:
        if rc != 0:
            return [f"moments {call.tag} exited {rc}"]
        reports = json.loads(call.outputs[0].read_text(encoding="utf-8"))
        if {r["quantity"] for r in reports} != self.QUANTITIES:
            return [f"moments {call.tag}: quantities {[r['quantity'] for r in reports]}"]
        for r in reports:
            if r["n_samples"] != self.samples:
                return [f"moments {call.tag}: n_samples {r['n_samples']}"]
            if not r["z_ratio"] <= ACCEPTANCE_Z_BOUND:
                return [f"moments {call.tag}: {r['quantity']} z_ratio {r['z_ratio']!r}"]
        return []


class WideFile:
    """Large ambient dimension with a file profile, single-threaded."""

    name = "wide-file"
    N, M = 2048, 8

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        self.work = work
        rng = np.random.default_rng([seed, 3])
        self.master_seed = _master_seed(rng)
        self.samples = 3 if tiny else 150
        self.z = rng.uniform(1.0, 1.5, 2 * self.N)
        self.profile = work / "wide-z.txt"
        self.profile.write_text("".join(f"{float(v)!r}\n" for v in self.z), encoding="utf-8")
        self.nu_th = float(np.sum(self.z**2 + self.z**-2)) / (4.0 * self.z.size)

    @property
    def requested_samples(self) -> int:
        return self.samples

    def size(self) -> dict:
        return {"n": self.N, "m": self.M, "ambient_modes": 2 * self.N,
                "z_profile": "file: uniform[1, 1.5) per ambient mode",
                "samples": self.samples, "master_seed": self.master_seed}

    def campaign(self, threads: int = 1) -> list[Call]:
        out = self.work / "wide.csv"
        argv = ["sample", "--n", str(self.N), "--m", str(self.M),
                "--z-profile", f"file:{self.profile}", "--samples", str(self.samples),
                "--seed", str(self.master_seed), "--threads", str(threads), "--out", str(out)]
        return [Call(argv, self.samples, [out])]

    def check(self, call: Call, rc, stdout: str) -> list[str]:
        if rc != 0:
            return [f"sample exited {rc}"]
        rows = _records(call.outputs[0].read_text(encoding="utf-8"))
        if [int(r["sample_index"]) for r in rows] != list(range(self.samples)):
            return ["sample CSV does not hold indices 0..samples-1 in order"]
        return _record_problems(rows, self.M, self.nu_th)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _passive(u: np.ndarray) -> np.ndarray:
    return np.block([[u.real, u.imag], [-u.imag, u.real]])


def _symplectic(n: int, max_squeeze: float, rng: np.random.Generator) -> np.ndarray:
    """Interferometer, squeeze layer z ~ U[1, max_squeeze), interferometer."""
    z = rng.uniform(1.0, max_squeeze, n)
    left, right = _passive(_haar_unitary(n, rng)), _passive(_haar_unitary(n, rng))
    return (left * np.concatenate([z, 1.0 / z])) @ right


def _omega(n: int) -> np.ndarray:
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _write_covariance(path: Path, gamma: np.ndarray) -> None:
    n = gamma.shape[0] // 2
    rows = "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in gamma)
    path.write_text(f"{n}\n{rows}", encoding="utf-8")


def _read_covariance(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").split("\n")
    return np.array([[float(x) for x in line.split()] for line in lines[1:] if line.strip()])


class Validate:
    """The self-check suite plus purify on pure and mixed 3-mode inputs
    at growing squeeze scales, all of them legitimate physical states."""

    name = "validate"
    MODES = 3
    SCALES = (1.5, 10.0, 100.0, 1000.0)
    KINDS = ("pure", "mixed")

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        self.work = work
        rng = np.random.default_rng([seed, 4])
        self.master_seed = _master_seed(rng)
        self.per_group = 2 if tiny else 100
        self.inputs: dict[Path, np.ndarray] = {}
        self.groups: list[tuple[str, Path, Path]] = []
        for scale in self.SCALES:
            for kind in self.KINDS:
                for k in range(self.per_group):
                    s = _symplectic(self.MODES, scale, rng)
                    if kind == "pure":
                        nus = np.full(self.MODES, 0.5)
                    else:
                        nus = rng.uniform(0.5, 2.0, self.MODES)
                    gamma = (s * np.concatenate([nus, nus])) @ s.T
                    gamma = 0.5 * (gamma + gamma.T)
                    src = work / f"cov-{kind}-s{scale:g}-{k}.txt"
                    _write_covariance(src, gamma)
                    self.inputs[src] = gamma
                    self.groups.append((f"{kind}-s{scale:g}", src, src.with_suffix(".pure.txt")))

    @property
    def requested_samples(self) -> int:
        return 0

    def size(self) -> dict:
        return {"suite_seed": self.master_seed, "modes": self.MODES,
                "squeeze_scales": list(self.SCALES), "kinds": list(self.KINDS),
                "inputs_per_scale_and_kind": self.per_group}

    def campaign(self, threads: int = 1) -> list[Call]:
        calls = [Call(["validate", "--seed", str(self.master_seed)], 1, tag="suite")]
        for tag, src, dst in self.groups:
            calls.append(Call(["purify", str(src), str(dst)], 1, [dst], tag=tag))
        return calls

    def check(self, call: Call, rc, stdout: str) -> list[str]:
        if call.tag == "suite":
            if rc != 0 or "FAIL" in stdout or "ok " not in stdout:
                return [f"validate suite exited {rc}: {stdout.strip()[-200:]}"]
            return []
        if rc in REFUSAL_CODES:
            return []  # a refused input is a failed op, not a wrong output
        if rc != 0:
            return [f"purify {call.argv[1]} exited {rc}"]
        gamma = self.inputs[Path(call.argv[1])]
        pure = _read_covariance(call.outputs[0])
        m = self.MODES
        keep = np.r_[0:m, 2 * m:3 * m]
        if pure.shape != (4 * m, 4 * m):
            return [f"purify {call.argv[1]}: output shape {pure.shape}"]
        scale = max(1.0, float(np.max(np.abs(gamma))))
        roundtrip = float(np.max(np.abs(pure[np.ix_(keep, keep)] - gamma)))
        if roundtrip > 1e-9 * scale:
            return [f"purify {call.argv[1]}: round trip error {roundtrip:.3e}"]
        # A covariance matrix is pure iff (Omega Gamma)^2 = -I/4.
        og = _omega(2 * m) @ pure
        impurity = float(np.max(np.abs(og @ og + 0.25 * np.eye(4 * m))))
        if impurity > 1e-9 * max(1.0, float(np.max(np.abs(pure)))) ** 2:
            return [f"purify {call.argv[1]}: impurity {impurity:.3e}"]
        return []


WORKLOADS = {cls.name: cls for cls in (Sweep, Moments, WideFile, Validate)}
