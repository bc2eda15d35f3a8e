import json
import math
import sys
import threading

import numpy as np
import pytest

from gausswork import harness, sampling, stats, weingarten
from gausswork.errors import DimensionMismatch, InvalidConfig
from gausswork.sampling import RandomStateConfig, ZProfile
from gausswork.stats import CSV_HEADER


def uniform_config(n_full=8, m_sys=1, z0=1.4, seed=5):
    return RandomStateConfig(
        n_full=n_full, m_sys=m_sys, profile=ZProfile("uniform", z0), master_seed=seed
    )


class TestComputeRecords:
    def test_index_order_and_thread_independence(self):
        config = uniform_config()
        serial = harness.compute_records(config, 60, threads=1)
        parallel = harness.compute_records(config, 60, threads=2)
        assert [r.sample_index for r in serial] == list(range(60))
        assert np.array_equal(serial, parallel)

    def test_csv_shape(self):
        config = uniform_config()
        text = harness.records_csv(harness.compute_records(config, 5), config)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_rejects_empty(self):
        with pytest.raises(InvalidConfig):
            harness.compute_records(uniform_config(), 0)

    @pytest.mark.parametrize("n_samples, threads, name", [
        (2.0, 1, "samples"), (True, 1, "samples"), (3, 2.5, "threads"), (3, True, "threads"),
        (3, 0, "threads"),
    ])
    def test_counts_refuse_bools_and_non_integers(self, n_samples, threads, name):
        with pytest.raises(InvalidConfig, match=f"^{name} must be"):
            harness.compute_records(uniform_config(), n_samples, threads)

    @pytest.mark.parametrize("run, n_configs", [
        (lambda samples: harness.compute_records(uniform_config(), samples), 1),
        (lambda samples: harness.run_sweep([4, 8], 1, ZProfile("uniform", 1.4), samples, 5), 2),
    ], ids=["compute_records", "run_sweep"])
    def test_largest_count_numpy_can_shape_kept(self, monkeypatch, run, n_configs):
        # the one record array of every config bounds the count, read before
        # any sample is drawn
        most = np.iinfo(np.intp).max // (n_configs * stats.RECORD_DTYPE.itemsize)

        def no_draws(*args):
            raise AssertionError("reached the fan-out")

        monkeypatch.setattr(harness.parallel, "run_chunked", no_draws)
        with pytest.raises(InvalidConfig, match=f"^samples must be <= {most}, got {most + 1}$"):
            run(most + 1)
        with pytest.raises(AssertionError, match="reached the fan-out"):
            run(most)

    def test_concurrent_threads_keep_their_draws(self):
        # two threads draw blocks of one shape at once; each draw and block
        # gets fresh arrays, so neither overwrites the other's Gaussian parts
        configs = [uniform_config(n_full=16, seed=seed) for seed in (11, 12)]
        samples = 3 * sampling.BLOCK_ENTRIES // 32 - 50  # three blocks, the last short
        expected = [harness.compute_records(config, samples) for config in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                results = [None, None]

                def run(k):
                    results[k] = harness.compute_records(configs[k], samples)

                threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for got, want in zip(results, expected):
                    assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)


class TestBlockKernel:
    @pytest.mark.parametrize("n_full, m_sys, profile, pipeline", [
        (12, 1, "uniform:1.4", "purified"),
        (10, 2, "power:0.3", "direct"),
        (2, 1, "flat:3.0", "purified"),  # a random squeezing vector per index
        (9, 8, "uniform:1.2", "purified"),
    ])
    def test_partition_independent(self, n_full, m_sys, profile, pipeline):
        config = RandomStateConfig(n_full=n_full, m_sys=m_sys, profile=ZProfile.parse(profile),
                                   master_seed=21, pipeline=pipeline)
        lo, split, hi = 3, 77, 203
        one_block = stats.evaluate_block(*sampling.sample_block(config, lo, hi), config, lo)
        per_index = np.concatenate([
            stats.evaluate_block(*sampling.sample_block(config, i, i + 1), config, i)
            for i in range(lo, hi)
        ])
        split_blocks = np.concatenate([
            stats.evaluate_block(*sampling.sample_block(config, a, b), config, a)
            for a, b in ((lo, split), (split, hi))
        ])
        pooled = harness.compute_records(config, hi, threads=2)[lo:]
        assert one_block.dtype == pooled.dtype == stats.RECORD_DTYPE
        assert one_block.sample_index.tolist() == list(range(lo, hi))
        assert np.array_equal(one_block, per_index)
        assert np.array_equal(one_block, split_blocks)
        assert np.array_equal(one_block, pooled)

    @pytest.mark.parametrize("profile", ["uniform:2.0", "power:0.3", "flat:6.0", "vacuum"])
    def test_purified_is_direct_at_twice_n(self, profile):
        # the purified pipeline samples 2n ambient modes: the draws of the
        # direct pipeline at 2n, with n_modes_full = n
        purified, direct = (
            harness.compute_records(RandomStateConfig(n_full=n, m_sys=2,
                                                      profile=ZProfile.parse(profile),
                                                      master_seed=7, pipeline=pipeline), 300)
            for n, pipeline in ((3, "purified"), (6, "direct"))
        )
        assert set(purified["n_modes_full"]) == {3}
        for name in stats.RECORD_DTYPE.names:
            if name != "n_modes_full":
                assert purified[name].tobytes() == direct[name].tobytes(), name

    def test_one_squeezing_vector_per_state(self):
        config = uniform_config()
        gammas, nu = sampling.sample_block(config, 0, 4)
        with pytest.raises(DimensionMismatch):
            stats.evaluate_block(gammas, nu[:1], config, 0)

    def test_chunk_blocks_capped(self, monkeypatch):
        seen = []
        draw_block = sampling._draw_block

        def counting(configs, lo, hi, *chunk):
            seen.append((lo, hi))
            return draw_block(configs, lo, hi, *chunk)

        monkeypatch.setattr(sampling, "_draw_block", counting)
        # d = 4096, m = 8 is one block per sample
        wide = RandomStateConfig(n_full=2048, m_sys=8, profile=ZProfile("uniform", 1.1),
                                 master_seed=2)
        assert len(harness._record_chunk([wide], 0, 3)[0]) == 3
        assert seen == [(0, 1), (1, 2), (2, 3)]
        # d = 16, m = 1 fits many samples in one block
        seen.clear()
        small = uniform_config(n_full=8)
        per_block = sampling.BLOCK_ENTRIES // 16
        assert len(harness._record_chunk([small], 0, per_block + 5)[0]) == per_block + 5
        assert seen == [(0, per_block), (per_block, per_block + 5)]
        # a grid of d = 16 and d = 4096 draws 32 indices at a time, the
        # draw cap's worth of the largest config
        seen.clear()
        grid = [small, uniform_config(n_full=2048)]
        assert list(map(len, harness._record_chunk(grid, 0, 70))) == [70, 70]
        assert seen == [(0, 32), (32, 64), (64, 70)]

    @pytest.mark.parametrize("config, hi, blocks", [
        # d = 4096, m = 8: one sample per draw, 32 per covariance stack
        (RandomStateConfig(n_full=2048, m_sys=8, profile=ZProfile("uniform", 1.1),
                           master_seed=2), 40, [(k, k + 1) for k in range(40)]),
        # d = 2, m = 2: a draw of 2048 samples would stack 32768 covariance entries
        (RandomStateConfig(n_full=2, m_sys=2, profile=ZProfile("uniform", 1.1),
                           master_seed=2, pipeline="direct"), 1100,
         [(0, 512), (512, 1024), (1024, 1100)]),
    ], ids=["wide", "direct"])
    def test_record_stacks_gather_blocks(self, monkeypatch, config, hi, blocks):
        drawn, stacks = [], []
        draw_block, evaluate_block = sampling._draw_block, stats.evaluate_block

        def drawing(configs, lo, hi, *chunk):
            drawn.append((lo, hi))
            return draw_block(configs, lo, hi, *chunk)

        def evaluating(gammas, nu, config, first):
            stacks.append(gammas.size)
            return evaluate_block(gammas, nu, config, first)

        monkeypatch.setattr(sampling, "_draw_block", drawing)
        monkeypatch.setattr(stats, "evaluate_block", evaluating)
        (records,) = harness._record_chunk([config], 0, hi)
        assert records["sample_index"].tolist() == list(range(hi))
        assert drawn == blocks
        assert len(stacks) < hi
        assert max(stacks) <= sampling.BLOCK_ENTRIES
        unstacked = [evaluate_block(*sampling.sample_block(config, lo, hi), config, lo)
                     for lo, hi in blocks]
        assert np.array_equal(records, np.concatenate(unstacked))


class TestChunkHoisting:
    # d = 16, m = 1: blocks of 512 samples, covariance stacks of 2048, so a
    # chunk of 2100 samples draws five blocks in two stacks
    LO, HI = 7, 2107

    def test_one_stream_hash_per_chunk(self, monkeypatch):
        calls = []
        pcg64_seeds = sampling._pcg64_seeds

        def counting(master_seed, lo, hi):
            calls.append((lo, hi))
            return pcg64_seeds(master_seed, lo, hi)

        monkeypatch.setattr(sampling, "_pcg64_seeds", counting)
        config = uniform_config(n_full=8)
        (records,) = harness._record_chunk([config], self.LO, self.HI)
        assert calls == [(self.LO, self.HI)]
        calls.clear()
        moments = weingarten._moment_chunk(config, self.LO, self.HI)
        assert calls == [(self.LO, self.HI)]
        assert len(records) == len(moments) == self.HI - self.LO

    @pytest.mark.parametrize("profile, n_full, draws", [
        ("uniform:1.4", 8, 1),
        ("file", 8, 1),
        ("flat:3.0", 2, HI - LO),  # a random vector from each index's stream
    ])
    def test_squeezing_drawn_once_per_chunk(self, monkeypatch, tmp_path, profile, n_full, draws):
        if profile == "file":
            path = tmp_path / "z.txt"
            path.write_text("".join(f"{1 + k / 16}\n" for k in range(2 * n_full)))
            profile = f"file:{path}"
        calls = []
        draw_squeezing = sampling.draw_squeezing

        def counting(profile, n_modes, rng=None):
            calls.append(n_modes)
            return draw_squeezing(profile, n_modes, rng)

        monkeypatch.setattr(sampling, "draw_squeezing", counting)
        config = RandomStateConfig(n_full=n_full, m_sys=1, profile=ZProfile.parse(profile),
                                   master_seed=4)
        (records,) = harness._record_chunk([config], self.LO, self.HI)
        assert calls == [2 * n_full] * draws
        monkeypatch.undo()
        assert np.array_equal(records, np.concatenate([
            stats.evaluate_block(*sampling.sample_block(config, lo, hi), config, lo)
            for lo, hi in ((self.LO, 1000), (1000, self.HI))
        ]))


def alone(configs, samples):
    # each config as a one-config grid: its records and its CSV rows
    pairs = [harness.compute_records(config, samples, return_csv=True) for config in configs]
    rows = "".join(text.split("\n", 1)[1] for _, text in pairs)
    return np.concatenate([records for records, _ in pairs]), CSV_HEADER + "\n" + rows


class TestGridDraw:
    # the grids span several draws, kernel blocks and covariance stacks
    @pytest.mark.parametrize("profile, pipeline, m_sys, seed, grid", [
        ("uniform:1.4", "purified", 1, 5, (2, 300)),
        ("power:0.3", "direct", 2, 2**64 + 7, (3, 17, 64)),
        ("vacuum", "purified", 3, 11, (3, 40)),
        ("power:0.2", "purified", 3, 2**70 + 1, (5, 9)),
    ])
    def test_sweep_equals_points_alone(self, profile, pipeline, m_sys, seed, grid):
        samples = 500
        records, _, text = harness.run_sweep(grid, m_sys, ZProfile.parse(profile), samples, seed,
                                             pipeline, threads=2, return_csv=True)
        configs = [RandomStateConfig(n_full=n, m_sys=m_sys, profile=ZProfile.parse(profile),
                                     master_seed=seed, pipeline=pipeline) for n in grid]
        expected, expected_text = alone(configs, samples)
        assert np.array_equal(records, expected)
        assert text == expected_text

    @pytest.mark.parametrize("m_sys", [1, 2])
    def test_file_profile_grid_equals_points_alone(self, tmp_path, m_sys):
        # both configs have 8 ambient modes, so one file profile fits both
        path = tmp_path / "z.txt"
        path.write_text("".join(f"{1 + k / 8}\n" for k in range(8)))
        profile = ZProfile.parse(f"file:{path}")
        configs = [RandomStateConfig(n_full=n, m_sys=m_sys, profile=profile,
                                     master_seed=2**65 + 3, pipeline=pipeline)
                   for n, pipeline in ((4, "purified"), (8, "direct"))]
        records, text = harness._records(configs, 300, 1, True)
        expected, expected_text = alone(configs, 300)
        assert np.array_equal(records, expected)
        assert text == expected_text

    def test_grid_must_share_seed_m_and_profile(self):
        for other in (uniform_config(seed=6), uniform_config(m_sys=2), uniform_config(z0=1.5)):
            with pytest.raises(InvalidConfig):
                list(sampling.iter_blocks([uniform_config(), other], 0, 3))


class TestRecordJoin:
    def test_join_equals_fieldwise_concatenation(self):
        chunks = [harness._record_chunk([uniform_config(n_full=n)], lo, hi)[0]
                  for n, lo, hi in ((4, 0, 7), (6, 3, 40), (4, 7, 8))]
        chunks.insert(2, np.empty(0, stats.RECORD_DTYPE))
        joined = harness._join(chunks)
        assert joined.dtype == stats.RECORD_DTYPE
        assert np.array_equal(joined, np.concatenate(chunks))
        records = harness._records([uniform_config(n_full=n) for n in (4, 6)], 20, 1, False)[0]
        assert isinstance(records, np.recarray)
        assert records.n_modes_full.tolist() == [4] * 20 + [6] * 20


def reference_csv_rows(records, config):
    # the formatter's reference: each record_rows row joined by str
    return "".join(",".join(map(str, row)) + "\n" for row in stats.record_rows(records, config))


class TestCsvRows:
    @pytest.mark.parametrize("slice_rows", [3, harness._CSV_SLICE])
    def test_several_configs(self, monkeypatch, slice_rows):
        # one slice spans the two configs' records: n_modes_full and nu_th
        # vary in it, and are constant in the others
        monkeypatch.setattr(harness, "_CSV_SLICE", slice_rows)
        configs = [uniform_config(n_full=n, seed=2**64 + 3) for n in (4, 6)]
        records = np.concatenate([harness.compute_records(config, 10) for config in configs])
        assert harness._csv_rows(records, configs[0]) == reference_csv_rows(records, configs[0])

    def test_slices_ignore_the_sampler_budget(self, monkeypatch):
        config = uniform_config()
        records = harness.compute_records(config, 5000)
        text = harness._csv_rows(records, config)
        slices, record_columns = [], stats.record_columns

        def recording(rows, config):
            slices.append(len(rows))
            return record_columns(rows, config)

        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 64)
        monkeypatch.setattr(stats, "record_columns", recording)
        assert harness._csv_rows(records, config) == text
        size = harness._CSV_SLICE
        assert slices == [size, size, 5000 - 2 * size]

    def test_flat_profile(self):
        config = RandomStateConfig(n_full=2, m_sys=1, profile=ZProfile.parse("flat:3.0"),
                                   master_seed=9)
        records = harness.compute_records(config, 30)
        assert len(set(records.nu_th.tolist())) == 30
        assert harness._csv_rows(records, config) == reference_csv_rows(records, config)

    def test_file_profile_path_with_percent(self, tmp_path):
        path = tmp_path / "z%r%%s%.txt"
        path.write_text("".join(f"{1 + k / 8}\n" for k in range(8)))
        config = RandomStateConfig(n_full=4, m_sys=2, profile=ZProfile.parse(f"file:{path}"),
                                   master_seed=2**70 + 1)
        records = harness.compute_records(config, 12)
        text = harness._csv_rows(records, config)
        assert text == reference_csv_rows(records, config)
        assert f",file:{path},{2**70 + 1}," in text

    @pytest.mark.parametrize("size", [0, 1, 6])
    def test_constancy_decided_on_bits(self, size):
        config = uniform_config()
        records = np.zeros(size, stats.RECORD_DTYPE)
        records["sample_index"] = np.arange(size)
        records["beta"] = -0.0  # constant, and printed as -0.0
        records["work"] = [0.0, -0.0, 0.0, 0.0, -0.0, 0.0][:size]
        records["stat_T"] = np.nan
        records["stat_delta"] = [np.nan, 1.5, -np.nan, np.inf, np.nan, -0.0][:size]
        records["energy"] = 1e300
        text = harness._csv_rows(records, config)
        assert text == reference_csv_rows(records, config)
        assert text.count("\n") == size


class TestSlopeFit:
    def test_recovers_power_law(self):
        ns = [16, 32, 64, 128]
        means = [3.0 * n ** -1.0 for n in ns]
        fit = harness.fit_loglog_slope(ns, means)
        assert fit["slope"] == pytest.approx(-1.0, abs=1e-12)
        assert fit["stderr"] == pytest.approx(0.0, abs=1e-10)
        assert math.exp(fit["intercept"]) == pytest.approx(3.0, abs=1e-10)

    def test_undefined_for_zero_mean(self):
        assert harness.fit_loglog_slope([16, 32], [0.0, 1.0]) is None


class TestSweep:
    def test_vacuum_sweep_degenerates(self):
        records, summary = harness.run_sweep(
            n_grid=[4, 8], m_sys=1, profile=ZProfile("vacuum"),
            samples=50, master_seed=1,
        )
        for block in summary["per_n"]:
            for tail in block["tails"]:
                assert tail["fraction"] == 0.0
        assert summary["delta_slope"] is None
        assert summary["warnings"] == [
            "delta slope undefined: some per-n mean delta is not positive"
        ]

    def test_one_point_sweep_names_the_grid(self):
        _, summary = harness.run_sweep(
            n_grid=[16], m_sys=1, profile=ZProfile("uniform", 1.5),
            samples=20, master_seed=1,
        )
        assert summary["delta_slope"] is None
        assert summary["warnings"] == ["delta slope undefined: the n grid [16] has one point"]

    def test_tails_consistent_with_records(self):
        records, summary = harness.run_sweep(
            n_grid=[8, 16], m_sys=1, profile=ZProfile("uniform", 1.8),
            samples=200, master_seed=3, epsilons=[0.01, 0.1],
        )
        for block in summary["per_n"]:
            works = [
                r.work for r in records if r.n_modes_full == block["n"]
            ]
            assert len(works) == block["samples"]
            for tail in block["tails"]:
                refraction = sum(1 for w in works if w > tail["epsilon"]) / len(works)
                assert tail["fraction"] == refraction

    def test_tails_are_tail_probability_entries(self):
        records, summary = harness.run_sweep(
            n_grid=[2, 4], m_sys=1, profile=ZProfile("uniform", 1.5),
            samples=60, master_seed=7, epsilons=[0.01, 0.05],
        )
        for g, block in enumerate(summary["per_n"]):
            works = records.work[g * 60:(g + 1) * 60]
            expected = [stats.tail_probability(works, eps) for eps in (0.01, 0.05)]
            assert block["tails"] == expected
            assert [list(tail) for tail in block["tails"]] == [list(e) for e in expected]
            assert list(block["tails"][0]) == ["epsilon", "fraction", "wilson_low", "wilson_high"]

    @pytest.mark.parametrize("epsilon", [True, np.False_, "0.1", b"0.2", None])
    def test_bool_or_non_real_epsilon_refused_before_sampling(self, monkeypatch, epsilon):
        # the type rule of stats.tail_probability, applied to every entry;
        # float() once took the string and the bytes
        def no_sampling(*args):
            raise AssertionError("sampled before refusing the epsilon list")

        monkeypatch.setattr(harness, "_records", no_sampling)
        with pytest.raises(InvalidConfig, match="^epsilon must be a real number, got "):
            harness.run_sweep([2], 1, ZProfile("uniform", 1.5), 3, 1, epsilons=[0.1, epsilon])

    def test_epsilon_past_the_float_range_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before refusing the epsilon list")

        monkeypatch.setattr(harness, "_records", no_sampling)
        with pytest.raises(InvalidConfig, match="^epsilon is beyond the float range, got "):
            harness.run_sweep([2], 1, ZProfile("uniform", 1.5), 3, 1, epsilons=[10 ** 400])

    def test_quantiles_monotone(self):
        _, summary = harness.run_sweep(
            n_grid=[8], m_sys=1, profile=ZProfile("uniform", 1.8),
            samples=300, master_seed=4,
        )
        block = summary["per_n"][0]
        for key in ("work", "delta"):
            q = block[key]
            assert q["q50"] <= q["q90"] <= q["q99"]
            assert q["median"] == q["q50"]

    def test_quantiles_equal_numpy(self):
        # the summary's quantiles are np.quantile's, bit for bit, on sizes
        # from 1 up, ties, NaN and values spanning many decades
        rng = np.random.default_rng(9)
        cases = [rng.integers(0, 3, n).astype(float) for n in range(1, 40)]
        cases += [rng.exponential(size=n) ** 3 * 10.0 ** rng.uniform(-30, 3)
                  for n in list(range(1, 40)) + [999, 1000, 1001]]
        cases.append(np.array([1.0, np.nan, 2.0]))
        for values in cases:
            block = harness._value_block(values)
            for key, q in (("q50", 0.5), ("q90", 0.9), ("q99", 0.99)):
                assert np.array_equal(block[key], np.quantile(values, q), equal_nan=True)

    def test_grid_validation(self):
        with pytest.raises(InvalidConfig):
            harness.run_sweep([16, 8], 1, ZProfile("vacuum"), 10, 0)
        with pytest.raises(InvalidConfig):
            harness.run_sweep([8, 16], 1, ZProfile("vacuum"), 10, 0, epsilons=[0.0])

    # and 0, below the grid's minimum, named as a grid entry, not as n_full
    @pytest.mark.parametrize("n_grid", [[16.9], [8, 16.0], [True, 4], [np.float64(8)], [0, 4]])
    def test_grid_refuses_bools_and_non_integers(self, n_grid):
        with pytest.raises(InvalidConfig, match="n_grid"):
            harness.run_sweep(n_grid, 1, ZProfile("vacuum"), 10, 0)

    def test_numpy_integers_give_the_plain_summary(self):
        plain = harness.run_sweep([2, 4], 1, ZProfile("uniform", 1.5), 10, 3)[1]
        numpy_ints = harness.run_sweep(np.array([2, 4]), np.int64(1), ZProfile("uniform", 1.5),
                                       10, np.uint32(3))[1]
        assert json.dumps(numpy_ints) == json.dumps(plain)

    @pytest.mark.parametrize("name, value", [
        ("samples", True), ("samples", 2.5), ("samples", np.float64(10)), ("samples", 0),
        ("threads", 2.5), ("threads", np.True_), ("threads", 0),
    ])
    def test_counts_refuse_bools_non_integers_and_zero(self, name, value):
        counts = {"samples": 10, "threads": 1, name: value}
        with pytest.raises(InvalidConfig, match=f"^{name} must be"):
            harness.run_sweep([2, 4], 1, ZProfile("vacuum"), master_seed=0, **counts)

    def test_numpy_counts_give_the_plain_summary(self):
        plain = harness.run_sweep([2, 4], 1, ZProfile("uniform", 1.5), 10, 3)[1]
        numpy_ints = harness.run_sweep([2, 4], 1, ZProfile("uniform", 1.5), np.int64(10), 3,
                                       threads=np.int32(1))[1]
        assert json.dumps(numpy_ints) == json.dumps(plain)
        assert type(numpy_ints["config"]["samples"]) is int
        assert all(type(block["samples"]) is int for block in numpy_ints["per_n"])

    def test_beta_warnings(self):
        assert harness.beta_warnings(0.0) == []
        warn_mid = harness.beta_warnings(0.2)
        assert len(warn_mid) == 1 and "1/8" not in warn_mid[0]
        assert len(harness.beta_warnings(0.3)) == 2

    def test_power_beta_flagged_in_sweep(self):
        _, summary = harness.run_sweep(
            n_grid=[8, 16], m_sys=1, profile=ZProfile("power", 0.5),
            samples=40, master_seed=6,
        )
        assert len(summary["warnings"]) >= 2


class TestMoments:
    def test_all_quantities_reported(self):
        reports = weingarten.mc_moments(uniform_config(n_full=4), 300)
        assert [r["quantity"] for r in reports] == list(
            ("tr_gamma", "tr_gamma_sq", "tr_omega_gamma_sq")
        )
        for r in reports:
            assert r["n_samples"] == 300

    def test_one_draw_per_sample(self, monkeypatch):
        config = uniform_config(n_full=4)
        unpatched = weingarten.mc_moments(config, 40)
        calls = []
        open_streams = sampling.block_streams

        def counting(master_seed, lo, hi):
            calls.extend(range(lo, hi))
            return open_streams(master_seed, lo, hi)

        monkeypatch.setattr(sampling, "block_streams", counting)
        reports = weingarten.mc_moments(config, 40)
        assert calls == list(range(40))
        assert reports == unpatched
