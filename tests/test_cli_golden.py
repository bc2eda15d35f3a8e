"""Golden command-line invocations, pinned by hash.

Each case runs ``cli.main`` in-process and records its exit code, stdout,
stderr and every output file it names.  Inputs are written as literal text
into a temporary directory, and that directory's path is replaced by
``<tmp>`` before hashing, so messages naming a file are stable.  Each
digest is the first 16 hex digits of a sha256.

The digests were taken with numpy 2.4.6 and the OpenBLAS 0.3.31 its wheel
bundles (scipy-openblas) under CPython 3.11 on x86-64; the package does
not import scipy.  Other versions can change the last digits of sampled
values, or argparse's wording, and with them the hashes.  A refactor of
the command line must leave every digest unchanged; a deliberate change
of output updates the table in the same commit.

The OpenBLAS thread count can change the bytes of an m >= 2 sample
(unpinned, a direct d = m = 64 sample differs at one and two threads);
the package pins OpenBLAS to one thread before its first sample, so every
case runs in-process, and child processes check that sample and the wide
case at other thread settings.  At m = 1 no BLAS routine touches a
sampled value, so those cases give the same bytes under any OpenBLAS CPU
kernel; child processes check that too, on x86-64.
"""

import contextlib
import hashlib
import io
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from gausswork import cli

COV_ONE_MODE = "1\n1.3 0.2\n0.2 0.9\n"
COV_TWO_MODE = (
    "2\n"
    "1.1 0.1 0.05 0.0\n"
    "0.1 0.9 0.0 -0.1\n"
    "0.05 0.0 1.2 0.2\n"
    "0.0 -0.1 0.2 0.8\n"
)

INPUTS = {
    "good1.txt": COV_ONE_MODE,
    "good2.txt": COV_TWO_MODE,
    "asym.txt": "1\n1.0 0.5\n0.0 1.0\n",
    "tight.txt": "1\n0.25 0.0\n0.0 0.25\n",
    "junk.txt": "not a matrix\n",
    "z.txt": "1.0\n1.2\n1.5\n1.1\n2.0\n1.3\n",
    "override.cfg": "n=4\nz_profile=vacuum\nsamples=3\nseed=9\n",
    "dash.cfg": "# dashes stand for underscores\nn-grid=6,12\nz-profile=vacuum\nsamples=5\n",
    "cov.cfg": "cov={tmp}/good1.txt\n",
    "banana.cfg": "banana=1\n",
    "words.cfg": "just words\n",
    "xml.cfg": "format=xml\n",
}

# name -> (argv, output files)
CASES = {
    "sample-csv": ("sample --n 6 --m 1 --z-profile uniform:1.3 --samples 8 --seed 3", ()),
    "sample-json-out": (
        "sample --n 4 --m 2 --z-profile power:0.2 --samples 5 --seed 1 --format json "
        "--out {tmp}/s.json", ("s.json",),
    ),
    "sample-file-profile": ("sample --n 3 --z-profile file:{tmp}/z.txt --samples 4 --seed 2", ()),
    "sample-threads": (
        "sample --n 8 --m 2 --z-profile uniform:1.5 --samples 12 --seed 5 --threads 2 "
        "--pipeline direct", (),
    ),
    # d m = 2^15, four times the block budget: one block per sample
    "sample-past-budget": ("sample --n 4096 --m 4 --z-profile uniform:1.5 --samples 2 --seed 3", ()),
    "sample-bad-profile": ("sample --n 4 --z-profile gauss:2 --samples 1", ()),
    "sweep-out": (
        "sweep --n-grid 6,12 --z-profile uniform:1.5 --samples 40 --seed 11 "
        "--epsilon 0.05,0.1 --out {tmp}/sw.json", ("sw.json", "sw.csv"),
    ),
    "sweep-power": ("sweep --n-grid 4,8,16 --z-profile power:0.3 --samples 10 --seed 2", ()),
    "sweep-vacuum": ("sweep --n-grid 4,8 --z-profile vacuum --samples 5", ()),
    "sweep-decreasing": ("sweep --n-grid 12,6 --z-profile vacuum --samples 5", ()),
    "moments": ("moments --n 4 --z-profile uniform:1.2 --samples 60 --seed 5", ()),
    "moments-out-vacuum": (
        "moments --n 6 --m 2 --z-profile vacuum --samples 20 --out {tmp}/mo.json", ("mo.json",),
    ),
    "moments-flat": ("moments --n 4 --z-profile flat:10 --samples 50", ()),
    "validate-suite": ("validate --sizes 2 --lipschitz-pairs 20 --seed 7", ()),
    "validate-cov-good": ("validate --cov {tmp}/good2.txt", ()),
    "validate-cov-asym": ("validate --cov {tmp}/asym.txt", ()),
    "validate-cov-unphysical": ("validate --cov {tmp}/tight.txt", ()),
    "validate-cov-missing": ("validate --cov {tmp}/nope.txt", ()),
    "purify-one-mode": ("purify {tmp}/good1.txt {tmp}/p1.txt", ("p1.txt",)),
    "purify-two-mode": ("purify {tmp}/good2.txt {tmp}/p2.txt", ("p2.txt",)),
    "purify-unphysical": ("purify {tmp}/tight.txt {tmp}/p3.txt", ()),
    "purify-malformed": ("purify {tmp}/junk.txt {tmp}/p4.txt", ()),
    "purify-missing": ("purify {tmp}/nope.txt {tmp}/p5.txt", ()),
    "config-override": ("sample --config {tmp}/override.cfg --z-profile uniform:1.1", ()),
    "config-dash-keys": ("sweep --config {tmp}/dash.cfg --out {tmp}/c.json", ("c.json", "c.csv")),
    "config-validate-cov": ("validate --config {tmp}/cov.cfg", ()),
    "config-unknown-key": (
        "sample --config {tmp}/banana.cfg --n 4 --z-profile vacuum --samples 1", (),
    ),
    "config-missing-file": (
        "sample --config {tmp}/nope.cfg --n 4 --z-profile vacuum --samples 1", (),
    ),
    "config-not-key-value": ("moments --config {tmp}/words.cfg", ()),
    "config-bad-format": (
        "sample --config {tmp}/xml.cfg --n 4 --z-profile vacuum --samples 1", (),
    ),
    "missing-required": ("sample --n 4 --samples 2", ()),
    "missing-several": ("moments", ()),
    "bad-int": ("sample --n four --z-profile vacuum --samples 1", ()),
    "bad-int-list": ("sweep --n-grid 1,a --z-profile vacuum --samples 1", ()),
    "bad-choice": ("sample --n 4 --z-profile vacuum --samples 1 --pipeline sideways", ()),
    "no-command": ("", ()),
}

# name -> (exit code, stdout, stderr, {file: digest}), recorded before the
# CLI refactor; the m = 1 cases since m = 1 takes its closed form, the
# sampled m >= 2 cases since Gamma comes from Gram matrices and a Cholesky
# factor
GOLDEN = {
    'bad-choice': (2, 'e3b0c44298fc1c14', '049ad70258167b3d', {}),
    'bad-int': (2, 'e3b0c44298fc1c14', '359ebcba92a85b71', {}),
    'bad-int-list': (2, 'e3b0c44298fc1c14', 'd8ae243cb558bc15', {}),
    'config-bad-format': (2, 'e3b0c44298fc1c14', 'fe2d1238b577ca91', {}),
    'config-dash-keys': (0, 'e3b0c44298fc1c14', 'e3b0c44298fc1c14', {'c.json': 'df9cdfe123dcc205', 'c.csv': 'aa007c73825ae956'}),
    'config-missing-file': (2, 'e3b0c44298fc1c14', '3676f33b2b9c4f88', {}),
    'config-not-key-value': (2, 'e3b0c44298fc1c14', '95dbce6770a1ea20', {}),
    'config-override': (0, '8f744c59ec64cd82', 'e3b0c44298fc1c14', {}),
    'config-unknown-key': (2, 'e3b0c44298fc1c14', '22cbaa3a8ad22ac0', {}),
    'config-validate-cov': (0, '8302e31ee61d1d8b', 'e3b0c44298fc1c14', {}),
    'missing-required': (2, 'e3b0c44298fc1c14', '403b56f5b77b61d5', {}),
    'missing-several': (2, 'e3b0c44298fc1c14', '67b012bae1640c71', {}),
    'moments': (0, '650b96a5a1f90696', 'e3b0c44298fc1c14', {}),
    'moments-flat': (2, 'e3b0c44298fc1c14', '0c9f8f8ec350ffcb', {}),
    'moments-out-vacuum': (0, 'e3b0c44298fc1c14', 'e3b0c44298fc1c14', {'mo.json': 'c9abaf853356add7'}),
    'no-command': (2, 'e3b0c44298fc1c14', '07f79b7a7ef5b9be', {}),
    'purify-malformed': (2, 'e3b0c44298fc1c14', '3eaaeb045f22094d', {}),
    'purify-missing': (2, 'e3b0c44298fc1c14', 'b41e33f43f61cc66', {}),
    'purify-one-mode': (0, 'e3b0c44298fc1c14', 'e3b0c44298fc1c14', {'p1.txt': '01a77ac66ef02a87'}),
    'purify-two-mode': (0, 'e3b0c44298fc1c14', 'e3b0c44298fc1c14', {'p2.txt': '0dd2478c72b858f2'}),
    'purify-unphysical': (2, 'e3b0c44298fc1c14', '78806593afc05bce', {}),
    'sample-bad-profile': (2, 'e3b0c44298fc1c14', '2264fce1931d9767', {}),
    'sample-csv': (0, 'df37e95d560c3cb2', 'e3b0c44298fc1c14', {}),
    'sample-file-profile': (0, '7eab6b277f8e780e', 'e3b0c44298fc1c14', {}),
    'sample-json-out': (0, 'e3b0c44298fc1c14', 'e3b0c44298fc1c14', {'s.json': 'd2e31ed20ca8cd83'}),
    'sample-past-budget': (0, 'ab0e3d67b151a230', 'e3b0c44298fc1c14', {}),
    'sample-threads': (0, '05bea57a0af3714d', 'e3b0c44298fc1c14', {}),
    'sweep-decreasing': (2, 'e3b0c44298fc1c14', 'bbfe349757343aff', {}),
    'sweep-out': (0, 'e3b0c44298fc1c14', 'e3b0c44298fc1c14', {'sw.json': 'f91d03539d3cf8ba', 'sw.csv': '5ad849c88d49082f'}),
    'sweep-power': (0, '7347abc8ea0d3892', 'e3b0c44298fc1c14', {}),
    'sweep-vacuum': (0, '79acf5e822c035a8', 'e3b0c44298fc1c14', {}),
    'validate-cov-asym': (1, 'e3b0c44298fc1c14', 'eeafd119ed76e23e', {}),
    'validate-cov-good': (0, '8302e31ee61d1d8b', 'e3b0c44298fc1c14', {}),
    'validate-cov-missing': (2, 'e3b0c44298fc1c14', 'b41e33f43f61cc66', {}),
    'validate-cov-unphysical': (1, 'e3b0c44298fc1c14', '68232820c6fb533b', {}),
    'validate-suite': (0, '52956bee3d634071', 'e3b0c44298fc1c14', {}),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def observe(name: str, tmp, env=None) -> tuple:
    """(exit code, stdout digest, stderr digest, {file: digest}) of one
    case: in-process, or with ``env`` in a ``python -m gausswork`` child
    process with that environment."""
    argv_text, outputs = CASES[name]
    argv = argv_text.format(tmp=tmp).split()
    if env is not None:
        child = subprocess.run([sys.executable, "-m", "gausswork", *argv], capture_output=True,
                               text=True, env=env)
        rc, out, err = child.returncode, io.StringIO(child.stdout), io.StringIO(child.stderr)
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                rc = exc.code

    def norm(text: str) -> str:
        return text.replace(str(tmp), "<tmp>")

    files = {f: _digest(norm((tmp / f).read_text(encoding="utf-8"))) for f in outputs}
    return rc, _digest(norm(out.getvalue())), _digest(norm(err.getvalue())), files


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    for fname, text in INPUTS.items():
        (tmp / fname).write_text(text.format(tmp=tmp), encoding="utf-8")
    return tmp


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, golden_dir, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    assert observe(name, golden_dir) == GOLDEN[name]


def test_every_case_pinned():
    assert set(GOLDEN) == set(CASES)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env(threads):
    """This process's environment with OpenBLAS's thread count set, or unset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.parametrize("threads", ["1", "2", None], ids=["one", "two", "unset"])
def test_wide_sample_bytes_at_any_blas_thread_count(threads, golden_dir):
    # d m = 2^15, one block per sample
    assert observe("sample-past-budget", golden_dir, blas_env(threads)) == GOLDEN["sample-past-budget"]


def test_square_sample_bytes_at_any_blas_thread_count():
    # direct d = m = 64: unpinned, two OpenBLAS threads gave other bytes
    # than one; compared with each other, not with a digest, so any CPU
    # kernel passes
    argv = "sample --n 64 --m 64 --pipeline direct --z-profile power:0.2 --samples 6 --seed 11"
    runs = {threads: subprocess.run([sys.executable, "-m", "gausswork", *argv.split()],
                                    capture_output=True, text=True, env=blas_env(threads))
            for threads in ("1", "2", None)}
    assert runs["1"].returncode == 0 and not runs["1"].stderr, runs["1"].stderr
    assert runs["2"].stdout == runs["1"].stdout
    assert runs[None].stdout == runs["1"].stdout


# OpenBLAS kernel -> the CPU feature it needs, as numpy detects it
CORE_FEATURES = {"Haswell": "AVX2", "SkylakeX": "AVX512F"}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("coretype", sorted(CORE_FEATURES))
@pytest.mark.parametrize("name", ["sample-csv", "sweep-out", "moments"])
def test_one_mode_bytes_at_any_blas_kernel(name, coretype, golden_dir):
    # the CPU kernel changes how BLAS rounds; m = 1 values use no BLAS
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    if not features.get(CORE_FEATURES[coretype]):
        pytest.skip(f"this CPU cannot run the {coretype} kernel")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    assert observe(name, golden_dir, env) == GOLDEN[name]
