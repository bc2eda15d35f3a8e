import hashlib
import json
import os
import re
import signal
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from gausswork import cli, harness, parallel, sampling, weingarten
from gausswork import phasespace as ps
from gausswork.errors import InvalidConfig, WorkerFailure
from gausswork.sampling import RandomStateConfig, ZProfile


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gausswork", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def write_covariance(path, gamma):
    with open(path, "w", encoding="utf-8") as fh:
        ps.write_covariance_text(np.asarray(gamma, dtype=float), fh)


class TestSample:
    def test_vacuum_rows_and_determinism(self, tmp_path):
        args = ("sample", "--n", "6", "--m", "1", "--z-profile", "vacuum",
                "--samples", "10", "--seed", "3")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        lines = first.stdout.splitlines()
        assert len(lines) == 11
        assert all(line.split(",")[8] == "0.0" for line in lines[1:])

    def test_json_format(self):
        result = run_cli("sample", "--n", "4", "--z-profile", "uniform:1.2",
                         "--samples", "2", "--format", "json")
        rows = json.loads(result.stdout)
        assert len(rows) == 2
        assert rows[0]["n_modes_full"] == 4
        assert rows[1]["sample_index"] == 1

    def test_seed_beyond_int64(self):
        # seeds are Python ints: one above 2^64 is kept and printed exactly
        args = ("sample", "--n", "5", "--m", "2", "--z-profile", "uniform:1.3",
                "--samples", "2", "--seed", str(2 ** 70))
        csv_text = run_cli(*args).stdout
        assert csv_text == (
            "sample_index,n_modes_full,n_modes_sys,beta,z_profile,master_seed,energy,"
            "sum_sympl,work,stat_T,stat_frakT,stat_delta,nu_th\n"
            "0,5,2,0.0,uniform:1.3,1180591620717411303424,1.1408579881656808,"
            "1.110200009388221,0.030657978777459904,0.06848842974821205,"
            "0.0018190845450330021,0.07030751429324505,0.5704289940828403\n"
            "1,5,2,0.0,uniform:1.3,1180591620717411303424,1.1408579881656806,"
            "1.1175860489265532,0.023271939239127404,0.05222101881340136,"
            "0.0011031128587252813,0.05332413167212664,0.5704289940828403\n"
        )
        json_text = run_cli(*args, "--format", "json").stdout
        assert json.loads(json_text)[1]["master_seed"] == 2 ** 70
        assert hashlib.sha256(json_text.encode()).hexdigest() == (
            "6c0592a5d1438bc2e351b0dead869c4ed5ecd80f6126d976d52d282c9bd79a06"
        )

    def test_csv_and_json_rows_agree(self):
        # both formats take their rows from stats.record_rows; a random
        # profile, and a seed past 2^64 that JSON keeps as an exact int
        seed = 2 ** 64 + 1
        args = ("sample", "--n", "2", "--m", "2", "--z-profile", "flat:5.0",
                "--pipeline", "direct", "--samples", "6", "--seed", str(seed))
        header, *rows = run_cli(*args).stdout.splitlines()
        dicts = json.loads(run_cli(*args, "--format", "json").stdout)
        assert len(rows) == len(dicts) == 6
        for row, entry in zip(rows, dicts):
            assert list(entry) == header.split(",")
            assert row.split(",") == [str(value) for value in entry.values()]
            assert entry["master_seed"] == seed and entry["z_profile"] == "flat:5.0"

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, threads):
        result = run_cli("sample", "--n", "4", "--z-profile", "vacuum", "--samples", "2",
                         "--threads", threads)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "threads" in result.stderr

    def test_pool_size_capped(self, tmp_path, monkeypatch):
        # the process count, the calling one included, is capped by the CPU
        # count; the spy runs every chunk inline
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        base = ["sample", "--n", "6", "--m", "2", "--z-profile", "uniform:1.4",
                "--samples", "10", "--seed", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main([*base, "--threads", "1", "--out", str(out1)]) == 0
        spy = FanOutSpy(monkeypatch, inline=True)
        assert cli.main([*base, "--threads", "100000", "--out", str(out2)]) == 0
        assert [len(ranges) for ranges in spy.fan_outs] == [4]
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_required_flag(self):
        result = run_cli("sample", "--n", "4", "--samples", "2")
        assert result.returncode == 2
        assert "z-profile" in result.stderr

    def test_bad_profile(self):
        result = run_cli("sample", "--n", "4", "--z-profile", "gauss:2", "--samples", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("command, profile", [
        ("sample", "uniform:nan"), ("sample", "power:nan"), ("sample", "uniform:inf"),
        ("moments", "uniform:nan"),
    ])
    def test_non_finite_profile(self, command, profile):
        result = run_cli(command, "--n", "4", "--z-profile", profile, "--samples", "2")
        assert result.returncode == 2
        assert result.stdout == ""
        assert profile in result.stderr

    @pytest.mark.parametrize("content", [None, "1.0\n1.2\nbig\n1.0\n"])
    def test_bad_profile_file(self, tmp_path, content):
        path = tmp_path / "z.txt"
        if content is not None:
            path.write_text(content)
        result = run_cli("sample", "--n", "2", "--z-profile", f"file:{path}", "--samples", "2")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "profile file" in result.stderr

    @pytest.mark.parametrize("n, profile, code", [
        ("2", "power:1e308", 2),  # n^(beta/2) overflows a float
        ("2", "uniform:1e200", 2),  # z^2 overflows
        ("64", "power:200", 2),
        ("2", "uniform:1e50", 3),  # the dispersions overflow
        ("2", "power:60", 3),  # a sampled state loses positive definiteness to rounding
        ("1", "flat:1e308", 2),  # 4E^2 overflows, so the largest z is infinite
        ("1", "flat:1e160", 2),
    ])
    def test_overflowing_profile(self, tmp_path, n, profile, code):
        out = tmp_path / "s.csv"
        result = run_cli("sample", "--n", n, "--m", "1", "--z-profile", profile,
                         "--samples", "2", "--out", str(out))
        assert result.returncode == code
        assert result.stderr.startswith("invalid input: " if code == 2 else "numerical failure: ")
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not out.exists()

    SMALL = ("sample", "--n", "4", "--z-profile", "vacuum", "--samples", "2")

    def test_symlinked_out_writes_through(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        assert run_cli(*self.SMALL, "--out", str(link)).returncode == 0
        assert link.is_symlink()
        assert real.read_text() == run_cli(*self.SMALL).stdout

    def test_out_keeps_mode(self, tmp_path):
        out = tmp_path / "s.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        assert run_cli(*self.SMALL, "--out", str(out)).returncode == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert out.read_text() == run_cli(*self.SMALL).stdout

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_unwritable_out(self, tmp_path, parent):
        (tmp_path / "file").write_text("")
        out = tmp_path / parent / "s.csv"
        result = run_cli("sample", "--n", "4", "--z-profile", "vacuum", "--samples", "2",
                         "--out", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "cannot write" in result.stderr


class TestSweep:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        base = ("sweep", "--n-grid", "6,12", "--m", "1", "--z-profile", "uniform:1.5",
                "--samples", "150", "--seed", "11")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*base, "--threads", "1", "--out", str(out1)).returncode == 0
        assert run_cli(*base, "--threads", "2", "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_lost_positive_definiteness_exits_3(self, tmp_path):
        out = tmp_path / "w.json"
        result = run_cli("sweep", "--n-grid", "2,4", "--z-profile", "power:60", "--samples", "4",
                         "--threads", "2", "--out", str(out))
        assert result.returncode == 3
        assert result.stderr.startswith("numerical failure: sample 0: positive-definite")
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_huge_flat_energy_exits_2(self, tmp_path):
        out = tmp_path / "w.json"
        result = run_cli("sweep", "--n-grid", "2,4", "--z-profile", "flat:1e300", "--samples", "4",
                         "--threads", "2", "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith("invalid input: energy bound 1e+300 too large")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_summary(self, tmp_path):
        # every record is finite, but the sum of the deltas that the
        # summary's mean needs is not
        out = tmp_path / "s.json"
        result = run_cli("sweep", "--n-grid", "2,4", "--z-profile", "uniform:6e38",
                         "--samples", "6", "--seed", "1", "--out", str(out))
        assert result.returncode == 3
        assert result.stderr.startswith("numerical failure: sweep summary overflows at n = 2")
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_one_process_pool(self, tmp_path, monkeypatch, capsys):
        # two CPUs, so --threads 2 forks on any runner: one child, once for
        # the whole grid
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = ["sweep", "--n-grid", "6,12,24", "--m", "1", "--z-profile", "uniform:1.5",
                "--samples", "40", "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main([*base, "--threads", "1", "--out", str(out1)]) == 0
        spy = FanOutSpy(monkeypatch, inline=False)
        assert cli.main([*base, "--threads", "2", "--out", str(out2)]) == 0
        assert spy.fan_outs == [[(0, 20), (20, 40)]]
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_summary_structure(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli("sweep", "--n-grid", "6,12", "--z-profile", "uniform:1.5",
                "--samples", "100", "--seed", "2", "--epsilon", "0.05,0.1",
                "--out", str(out))
        summary = json.loads(out.read_text())
        assert [b["n"] for b in summary["per_n"]] == [6, 12]
        assert [t["epsilon"] for t in summary["per_n"][0]["tails"]] == [0.05, 0.1]
        assert "delta_slope" in summary and "warnings" in summary

    def test_decreasing_grid_rejected(self):
        result = run_cli("sweep", "--n-grid", "12,6", "--z-profile", "vacuum",
                         "--samples", "5")
        assert result.returncode == 2

    def test_unwritable_out_leaves_nothing(self, tmp_path):
        (tmp_path / "taken").mkdir()
        result = run_cli("sweep", "--n-grid", "6,12", "--z-profile", "vacuum",
                         "--samples", "5", "--out", str(tmp_path / "taken"))
        assert result.returncode == 2
        assert "cannot write" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("out", ["s.csv", "."])
    def test_out_without_separate_csv_path_rejected(self, tmp_path, monkeypatch, out):
        # the records go to the --out path with a .csv suffix, which must differ
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep", "--n-grid", "8,16", "--z-profile", "uniform:1.5",
                         "--samples", "20", "--out", out]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_csv_leaves_no_json(self, tmp_path):
        (tmp_path / "s.csv").mkdir()
        result = run_cli("sweep", "--n-grid", "6,12", "--z-profile", "vacuum",
                         "--samples", "5", "--out", str(tmp_path / "s.json"))
        assert result.returncode == 2
        assert "cannot write" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    @pytest.mark.parametrize("epsilon", ["", "nan", "inf", "0.1,nan"],
                             ids=["empty", "nan", "inf", "one-nan"])
    def test_empty_epsilon_rejected(self, epsilon):
        result = run_cli("sweep", "--n-grid", "6", "--z-profile", "vacuum",
                         "--samples", "5", "--epsilon", epsilon)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    def test_tail_fractions_rederivable_from_csv(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli("sweep", "--n-grid", "6,12", "--z-profile", "uniform:1.8",
                "--samples", "250", "--seed", "13", "--epsilon", "0.02,0.1",
                "--out", str(out))
        summary = json.loads(out.read_text())
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        works = {}
        for row in rows:
            cells = row.split(",")
            works.setdefault(int(cells[1]), []).append(float(cells[8]))
        for block in summary["per_n"]:
            per_n = works[block["n"]]
            for tail in block["tails"]:
                fraction = sum(1 for w in per_n if w > tail["epsilon"]) / len(per_n)
                assert tail["fraction"] == fraction


class FanOutSpy:
    """Wraps ``parallel._fork_chunks`` and records the chunk ranges of each
    fan-out, one range per process; with ``inline`` every chunk runs in
    this process instead of a forked child."""

    def __init__(self, monkeypatch, inline):
        self.fan_outs = []
        fork_chunks = parallel._fork_chunks

        def spy(worker, args, ranges):
            self.fan_outs.append(list(ranges))
            if inline:
                return [worker(*args, lo, hi) for lo, hi in ranges]
            return fork_chunks(worker, args, ranges)

        monkeypatch.setattr(parallel, "_fork_chunks", spy)

    @property
    def ranges(self):
        return [r for ranges in self.fan_outs for r in ranges]


class TestFanOut:
    # three CPUs, so a --threads far above it must cut each job in three
    CPUS = 3

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: self.CPUS)

    @staticmethod
    def assert_covering(ranges, n_items):
        # the chunks are contiguous and cover 0..n_items, in index order
        assert ranges[0][0] == 0 and ranges[-1][1] == n_items
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_sample_cut_in_one_chunk_per_worker(self, tmp_path, monkeypatch):
        base = ["sample", "--n", "4", "--m", "1", "--z-profile", "uniform:1.5",
                "--samples", "2000", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main([*base, "--threads", "1", "--out", str(out1)]) == 0
        spy = FanOutSpy(monkeypatch, inline=True)
        assert cli.main([*base, "--threads", "2000", "--out", str(out2)]) == 0
        assert len(spy.ranges) == min(2000, os.cpu_count())
        self.assert_covering(spy.ranges, 2000)
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_cut_in_one_chunk_per_worker(self, tmp_path, monkeypatch):
        # a chunk covers every grid point
        base = ["sweep", "--n-grid", "4,6,9", "--m", "1", "--z-profile", "uniform:1.5",
                "--samples", "40", "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main([*base, "--threads", "1", "--out", str(out1)]) == 0
        spy = FanOutSpy(monkeypatch, inline=True)
        assert cli.main([*base, "--threads", "2000", "--out", str(out2)]) == 0
        assert len(spy.ranges) == self.CPUS
        self.assert_covering(spy.ranges, 40)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("seed", [3, 2 ** 70 + 12345])  # the second exceeds int64
    def test_worker_rows_match_records_csv(self, tmp_path, monkeypatch, seed):
        # real forks, so each chunk but the first has its rows formatted in a child
        spy = FanOutSpy(monkeypatch, inline=False)
        profile, samples, grid = ZProfile("uniform", 1.5), 30, (4, 6)
        configs = {n: RandomStateConfig(n_full=n, m_sys=1, profile=profile, master_seed=seed)
                   for n in grid}
        records = {n: harness.compute_records(configs[n], samples) for n in grid}
        common = ["--z-profile", "uniform:1.5", "--samples", str(samples), "--seed", str(seed)]
        for threads in ("1", "3"):
            out = tmp_path / f"s{threads}.csv"
            assert cli.main(["sample", "--n", "4", *common, "--format", "csv",
                             "--threads", threads, "--out", str(out)]) == 0
            assert out.read_bytes() == harness.records_csv(records[4], configs[4]).encode()
            out = tmp_path / f"w{threads}.json"
            assert cli.main(["sweep", "--n-grid", "4,6", *common,
                             "--threads", threads, "--out", str(out)]) == 0
            expected = harness.records_csv(np.concatenate([records[n] for n in grid]), configs[4])
            assert out.with_suffix(".csv").read_bytes() == expected.encode()
        assert len(spy.ranges) == self.CPUS + self.CPUS
        assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w3.json").read_bytes()

    @pytest.mark.parametrize("profile, per_chunk", [("uniform:1.5", 1), ("flat:6.0", 2)])
    def test_sweep_hashes_streams_once_per_chunk(self, monkeypatch, profile, per_chunk):
        # a deterministic profile's grid shares each index's stream; each
        # point of a flat profile's grid opens its own
        calls = []
        pcg64_seeds = sampling._pcg64_seeds

        def counting(master_seed, lo, hi):
            calls.append((lo, hi))
            return pcg64_seeds(master_seed, lo, hi)

        monkeypatch.setattr(sampling, "_pcg64_seeds", counting)
        spy = FanOutSpy(monkeypatch, inline=True)
        harness.run_sweep([1, 2], 1, ZProfile.parse(profile), 40, 11, threads=3)
        assert len(spy.ranges) == self.CPUS
        assert calls == [r for r in spy.ranges for _ in range(per_chunk)]

    @pytest.mark.parametrize("command", [
        ["sample", "--n", "4", "--z-profile", "uniform:1.5", "--samples", "20"],
        ["sweep", "--n-grid", "4,6", "--z-profile", "uniform:1.5", "--samples", "20"],
    ], ids=["sample", "sweep"])
    def test_dead_worker_exits_3(self, tmp_path, monkeypatch, capsys, command):
        chunk = harness._chunk

        def dying(configs, csv, lo, hi):
            if lo:  # a forked child: the first chunk runs in this process
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk(configs, csv, lo, hi)

        monkeypatch.setattr(harness, "_chunk", dying)
        out = tmp_path / "out.json"
        assert cli.main([*command, "--threads", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("worker failure: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def index_sum(scale, lo, hi):
    return scale * sum(range(lo, hi))


class ExitWhenPickled:
    def __reduce__(self):
        os._exit(0)


def failing_child(how, lo, hi):
    """A chunk worker whose forked children fail as ``how`` says; the
    first chunk, which runs in the calling process, returns."""
    if lo == 0:
        return hi
    if how == "killed":
        os.kill(os.getpid(), signal.SIGKILL)
    if how == "empty":
        os._exit(0)
    if how == "raises":
        raise ValueError(f"chunk from {lo}")
    return [bytes(1 << 20), ExitWhenPickled()]  # the pipe gets 1 MiB of a pickle


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForks:
    # four CPUs, so every case forks on any runner
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def test_results_in_index_order(self):
        assert parallel.run_chunked(index_sum, (2,), 10, 4) == [
            index_sum(2, lo, hi) for lo, hi in parallel.split_ranges(10, 4)]
        assert_no_children()

    @pytest.mark.parametrize("how, detail", [
        ("killed", f"killed by signal {int(signal.SIGKILL)}"),
        ("empty", "exit status 0"),
        ("truncated", "exit status 0"),
    ])
    def test_child_without_result_is_worker_failure(self, how, detail):
        with pytest.raises(WorkerFailure, match=rf"indices 2\.\.4 returned no result \({detail}\)"):
            parallel.run_chunked(failing_child, (how,), 10, 4)
        assert_no_children()

    def test_failed_fork_is_worker_failure(self, monkeypatch):
        # the second fork fails: the first child is killed and reaped, and
        # no pipe end stays open
        pipes, fork = [], os.fork

        def recording_pipe(pipe=os.pipe):
            pipes.extend(pipe())
            return pipes[-2:]

        def fork_once():
            if len(pipes) > 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", fork_once)
        with pytest.raises(WorkerFailure, match="^cannot fork a worker process: "):
            parallel.run_chunked(index_sum, (1,), 10, 4)
        assert_no_children()
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    @pytest.mark.parametrize("threads", [0, True, 2.5])
    def test_threads_read_as_a_count(self, threads):
        # 0 and True once ran inline as one process; 2.5 failed in split_ranges
        with pytest.raises(InvalidConfig, match="^threads must be "):
            parallel.run_chunked(index_sum, (1,), 10, threads)
        assert_no_children()

    def test_lowest_failing_chunk_wins(self):
        with pytest.raises(ValueError, match="^chunk from 2$"):
            parallel.run_chunked(failing_child, ("raises",), 10, 4)
        assert_no_children()

    def test_failing_first_chunk_kills_children(self, tmp_path):
        # the children would each leave a file after a second; they are
        # killed once the first chunk fails here, not waited for
        def worker(lo, hi):
            if lo == 0:
                raise ValueError("first chunk")
            time.sleep(1.0)
            (tmp_path / str(lo)).write_text("done")

        with pytest.raises(ValueError, match="^first chunk$"):
            parallel.run_chunked(worker, (), 10, 4)
        assert_no_children()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        # every sample fails, so the first chunk fails in the calling process
        (("--samples", "4", "--seed", "1", "--z-profile", "power:60"), "sample 0: "),
        # samples 4-7 fail at n = 2 and none at n = 4, so the first chunk
        # passes at 2 and 3 threads (indices 0..3 and 0..2) and the error
        # is a child's; seed 43 is the first of seeds 0..199 at power:29
        # where that holds and the error is the same at 1, 2 and 3 threads
        (("--samples", "8", "--seed", "43", "--z-profile", "power:29"), "sample 4: "),
    ], ids=["first-chunk", "later-chunk"])
    def test_failing_sweep_same_stderr_at_every_thread_count(self, tmp_path, capsys, args, message):
        errors = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"w{threads}.json"
            assert cli.main(["sweep", "--n-grid", "2,4", *args, "--threads", threads,
                             "--out", str(out)]) == 3
            errors.append(capsys.readouterr().err)
            assert_no_children()
        assert errors[0].startswith(f"numerical failure: {message}positive-definite")
        assert errors == [errors[0]] * 3
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("sample", "--n", "4", "--z-profile", "vacuum", "--samples", "2"),
    ("sweep", "--n-grid", "4", "--z-profile", "vacuum", "--samples", "2"),
    ("moments", "--n", "4", "--z-profile", "vacuum", "--samples", "2"),
    ("validate", "--lipschitz-pairs", "5"),
], ids=lambda command: command[0])
def test_negative_seed_rejected(command):
    result = run_cli(*command, "--seed", "-1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("invalid input:")
    assert "Traceback" not in result.stderr


class TestMoments:
    def test_json_fields(self):
        result = run_cli("moments", "--n", "4", "--z-profile", "uniform:1.2",
                         "--samples", "200", "--seed", "5")
        reports = json.loads(result.stdout)
        assert len(reports) == 3
        for report in reports:
            assert list(report) == [
                "quantity", "analytic", "estimate", "std_error", "n_samples", "z_ratio",
            ]
            assert report["n_samples"] == 200

    @pytest.mark.parametrize("n, m, profile, seed", [
        (8, 1, "uniform:1.2", 1), (16, 2, "uniform:1.3", 12), (4, 2, "vacuum", 3),
    ])
    def test_out_bytes_are_mc_moments(self, tmp_path, n, m, profile, seed):
        out = tmp_path / "moments.json"
        assert cli.main(["moments", "--n", str(n), "--m", str(m), "--z-profile", profile,
                         "--samples", "300", "--seed", str(seed), "--out", str(out)]) == 0
        config = RandomStateConfig(n_full=n, m_sys=m, profile=ZProfile.parse(profile),
                                   master_seed=seed)
        expected = json.dumps(weingarten.mc_moments(config, 300), indent=2) + "\n"
        assert out.read_bytes() == expected.encode()

    def test_vacuum_zero_z_ratio(self):
        result = run_cli("moments", "--n", "4", "--z-profile", "vacuum",
                         "--samples", "50", "--seed", "1")
        reports = json.loads(result.stdout)
        by_name = {r["quantity"]: r for r in reports}
        assert by_name["tr_gamma"]["z_ratio"] == 0.0
        assert by_name["tr_gamma_sq"]["z_ratio"] == 0.0

    def test_flat_profile_rejected(self):
        result = run_cli("moments", "--n", "4", "--z-profile", "flat:10",
                         "--samples", "50")
        assert result.returncode == 2

    def test_unwritable_out(self, tmp_path):
        result = run_cli("moments", "--n", "4", "--z-profile", "vacuum", "--samples", "5",
                         "--out", str(tmp_path / "missing" / "m.json"))
        assert result.returncode == 2
        assert "cannot write" in result.stderr

    @pytest.mark.parametrize("profile", [
        "uniform:1e50",  # the variance sum overflows
        "uniform:1e100",  # the analytic second moments overflow
    ])
    def test_overflowing_moments(self, tmp_path, profile):
        out = tmp_path / "m.json"
        result = run_cli("moments", "--n", "2", "--z-profile", profile, "--samples", "3",
                         "--out", str(out))
        assert result.returncode == 3
        assert result.stderr.startswith("numerical failure: ")
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not out.exists()


class TestValidate:
    def test_default_suite_passes(self):
        result = run_cli("validate", "--lipschitz-pairs", "50")
        assert result.returncode == 0
        assert "FAIL" not in result.stdout

    @pytest.mark.parametrize("args", [("--sizes", ""), ("--lipschitz-pairs", "0"),
                                      ("--lipschitz-pairs", "-5")])
    def test_nothing_to_check_rejected(self, args):
        result = run_cli("validate", *args)
        assert result.returncode == 2
        assert "ok " not in result.stdout
        assert "Traceback" not in result.stderr

    def test_asymmetric_file_names_symmetry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n1.0 0.5\n0.0 1.0\n")
        result = run_cli("validate", "--cov", str(path))
        assert result.returncode == 1
        assert "symmetry" in result.stderr

    def test_unphysical_file_names_uncertainty(self, tmp_path):
        path = tmp_path / "tight.txt"
        write_covariance(path, 0.25 * np.eye(2))
        result = run_cli("validate", "--cov", str(path))
        assert result.returncode == 1
        assert "uncertainty" in result.stderr

    def test_good_file(self, tmp_path):
        path = tmp_path / "ok.txt"
        write_covariance(path, np.eye(4) / 2)
        assert run_cli("validate", "--cov", str(path)).returncode == 0

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe\x00\x01")
        result = run_cli("validate", "--cov", str(path))
        assert result.returncode == 2
        assert "cannot read" in result.stderr

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_file_names_finite(self, tmp_path, bad):
        path = tmp_path / "inf.txt"
        path.write_text(f"1\n{bad} 0.0\n0.0 1.0\n")
        result = run_cli("validate", "--cov", str(path))
        assert result.returncode == 1
        assert "FAIL covariance-invariants: finite" in result.stderr


class TestPurify:
    def test_vacuum(self, tmp_path):
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        write_covariance(src, np.eye(2) / 2)
        assert run_cli("purify", str(src), str(dst)).returncode == 0
        with open(dst) as fh:
            pure = ps.read_covariance_text(fh)
        assert np.allclose(pure, np.eye(4) / 2, atol=1e-12)

    def test_unit_thermal_cross_entries(self, tmp_path):
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        write_covariance(src, np.eye(2))
        assert run_cli("purify", str(src), str(dst)).returncode == 0
        assert "0.8660254037844386" in dst.read_text()

    def test_malformed_file(self, tmp_path):
        src = tmp_path / "junk.txt"
        for content in (b"not a matrix\n", b"\xff\xfe\x00\x01"):
            src.write_bytes(content)
            result = run_cli("purify", str(src), str(tmp_path / "o.txt"))
            assert result.returncode == 2
            assert "Traceback" not in result.stderr

    def test_fifo_output_written_in_place(self, tmp_path):
        src, fifo = tmp_path / "in.txt", tmp_path / "out.fifo"
        write_covariance(src, np.eye(2) / 2)
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli("purify", str(src), str(fifo)).returncode == 0
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert text.splitlines()[0] == "2"

    def test_unphysical_input(self, tmp_path):
        src = tmp_path / "tight.txt"
        write_covariance(src, 0.1 * np.eye(2))
        assert run_cli("purify", str(src), str(tmp_path / "o.txt")).returncode == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("purify", str(tmp_path / "nope.txt"), "o.txt").returncode == 2

    def test_unwritable_output(self, tmp_path):
        src = tmp_path / "in.txt"
        write_covariance(src, np.eye(2))
        result = run_cli("purify", str(src), str(tmp_path / "missing" / "o.txt"))
        assert result.returncode == 2
        assert "cannot write" in result.stderr


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nz_profile=vacuum\nsamples=3\nseed=9\n")
        result = run_cli("sample", "--config", str(cfg), "--z-profile", "uniform:1.1")
        lines = result.stdout.splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[4] == "uniform:1.1"
        assert lines[1].split(",")[5] == "9"

    def test_dash_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-grid=6,12\nz-profile=vacuum\nsamples=5\n")
        out = tmp_path / "s.json"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)).returncode == 0

    def test_unknown_key_rejected(self, tmp_path):
        # also a bad value and a file that is not UTF-8
        cfg = tmp_path / "run.cfg"
        for content, needle in ((b"banana=1\n", "banana"), (b"m=abc\n", "config key m"),
                                (b"\xff\xfe=1\n", "cannot read config file")):
            cfg.write_bytes(content)
            result = run_cli("sample", "--config", str(cfg), "--n", "4",
                             "--z-profile", "vacuum", "--samples", "1")
            assert result.returncode == 2
            assert needle in result.stderr
            assert "Traceback" not in result.stderr


class TestHelp:
    STATE = "--config --m --z-profile --samples --seed --pipeline --threads --out"
    FLAGS = {
        "sample": STATE + " --n --format",
        "sweep": STATE + " --n-grid --epsilon",
        "moments": STATE + " --n",
        "validate": "--config --seed --sizes --lipschitz-pairs --cov",
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_and_defaults(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        assert re.findall(r"^  (--[a-z-]+)", text, re.M) == self.FLAGS[command].split()
        seed = "2024" if command == "validate" else "0"
        assert re.search(rf"^  --seed SEED .*\(default {seed}\)$", text, re.M)


class TestCommandParser:
    # main builds the invoked command's parser alone
    @pytest.mark.parametrize("argv", [[*cmd, flag] for cmd in (["sample"], ["sweep"], ["moments"],
                                                               ["validate"], ["purify", "a", "b"])
                                      for flag in ("--help", "--bogus")])
    def test_output_equals_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        outputs = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outputs.append((exc.value.code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (0 if argv[-1] == "--help" else 2)

    def test_one_command_per_parser(self):
        with pytest.raises(SystemExit):
            cli.build_parser("moments").parse_args(["sample", "--n", "2"])
        args = cli.build_parser("moments").parse_args(["moments", "--n", "2"])
        assert (args.command, args.n) == ("moments", 2)

    @pytest.mark.parametrize("argv", [["nope"], ["--seed", "3", "moments"], []])
    def test_other_arguments_list_every_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gausswork [-h] {sample,sweep,moments,validate,purify} ...\n")
        if argv == ["nope"]:
            assert err.endswith("invalid choice: 'nope' (choose from 'sample', 'sweep', "
                                "'moments', 'validate', 'purify')\n")


class TestImports:
    # a fresh interpreter, so modules pytest or other tests loaded cannot mask one
    SCRIPT = """
import sys
from gausswork import cli
assert cli.main(["purify", sys.argv[1], sys.argv[2]]) == 0
assert cli.main(["validate", "--sizes", "2", "--lipschitz-pairs", "20"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

    def test_commands_leave_scipy_unloaded(self, tmp_path):
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        write_covariance(src, np.diag([1.1, 0.9, 1.2, 0.8]))
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, str(src), str(dst)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert dst.exists()
        assert result.stdout.splitlines()[-1] == "[]"
