"""Benchmark harness tests: spec validation, bands, determinism, emission."""

import hashlib
import logging
import math

import pytest

from lattice_rearrange.bench import (
    EXPERIMENTS,
    ExperimentReport,
    ExperimentSpec,
    _mean_std,
    _square_layout,
    report_to_csv,
    report_to_json,
    run_experiment,
)


def stat(report, size, name):
    for row in report.rows:
        if row.size == size and row.statistic == name:
            return row
    raise AssertionError(f"no row ({size}, {name})")


class TestSpecValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentSpec("no_such", (10,))

    def test_bad_sizes_and_trials(self):
        with pytest.raises(ValueError):
            ExperimentSpec("lor_ratio", ())
        with pytest.raises(ValueError):
            ExperimentSpec("lor_ratio", (0,))
        with pytest.raises(ValueError):
            ExperimentSpec("lor_ratio", (10,), trials=0)
        # sizes, trials and seed must be integers; the error names the field
        for field, kwargs in (("sizes", {"sizes": (2.5,)}), ("sizes", {"sizes": ("4",)}),
                              ("trials", {"trials": 2.5}), ("seed", {"seed": 1.5})):
            with pytest.raises(ValueError, match=field):
                ExperimentSpec("lor_ratio", **{"sizes": (10,), **kwargs})
        # an int-like value is stored as the plain int it stands for
        spec = ExperimentSpec("lor_ratio", (True,), trials=True, seed=False)
        assert spec.sizes == (1,) and type(spec.trials) is int and type(spec.seed) is int
        assert '"trials": 1,' in report_to_json(run_experiment(spec))

    def test_distribution_must_fit_experiment(self):
        with pytest.raises(ValueError):
            ExperimentSpec("lor_ratio", (10,), distribution="column-random")
        with pytest.raises(ValueError):
            ExperimentSpec("por_ratios", (10,), distribution="uniform")

    def test_defaults_resolve(self):
        # the default distribution is each experiment's first
        expected = {
            "lor_ratio": ("uniform", ("opt_travel_over_m_squared",)),
            "lor_greedy_vs_opt": ("uniform", ("sweep_over_opt_travel",)),
            "ltr_cycle_dist": ("uniform", ("cycle_distance_stat",)),
            "ltr_total_vs_cycles": (
                "uniform", ("sweep_total_over_cycle_edges", "switch_total_over_cycle_edges")),
            "por_ratios": ("typed-k4", ("greedy_over_opt_travel", "greedy_over_opt_picks")),
            "ptr_ratios": ("pattern-a", ("greedy_over_plan_travel", "greedy_over_plan_picks")),
            "cycle_stats": ("uniform", ("cycle_count", "opt_picks", "opt_travel")),
        }
        assert list(expected) == list(EXPERIMENTS)
        for experiment, (default, statistics) in expected.items():
            spec = ExperimentSpec(experiment, (4,))
            assert (spec.distribution, spec.statistics) == (default, statistics)
            assert next(iter(EXPERIMENTS[experiment][0])) == default


class TestStatisticBands:
    def test_opt_travel_ratio_band_m100(self):
        report = run_experiment(ExperimentSpec("lor_ratio", (100,), 100, seed=7))
        row = stat(report, 100, "opt_travel_over_m_squared")
        assert 0.33 <= row.mean <= 0.345

    def test_sweep_strictly_worse_on_local_shuffles(self):
        report = run_experiment(ExperimentSpec(
            "lor_greedy_vs_opt", (100,), 50, distribution="10-random", seed=7))
        assert stat(report, 100, "sweep_over_opt_travel").mean > 1.0

    def test_cycle_stats_against_harmonic_numbers(self):
        report = run_experiment(ExperimentSpec("cycle_stats", (1000,), 100, seed=3))
        h = sum(1.0 / i for i in range(1, 1001))
        assert stat(report, 1000, "cycle_count").mean == pytest.approx(h, rel=0.05)
        assert stat(report, 1000, "opt_picks").mean == \
            pytest.approx(1000 + h - 2, rel=0.01)
        assert stat(report, 1000, "opt_travel").mean == \
            pytest.approx(1000 ** 2 / 3, rel=0.02)

    def test_cycle_distance_bands(self):
        uni = run_experiment(ExperimentSpec("ltr_cycle_dist", (40,), 30, seed=11))
        assert 0.50 <= stat(uni, 40, "cycle_distance_stat").mean <= 0.54
        col = run_experiment(ExperimentSpec(
            "ltr_cycle_dist", (40,), 30, distribution="column-random", seed=11))
        assert stat(col, 40, "cycle_distance_stat").mean == \
            pytest.approx(1 / 3, abs=0.02)

    def test_total_over_cycle_edges_at_least_one(self):
        report = run_experiment(ExperimentSpec(
            "ltr_total_vs_cycles", (12,), 20, seed=5))
        sweep = stat(report, 12, "sweep_total_over_cycle_edges")
        switch = stat(report, 12, "switch_total_over_cycle_edges")
        assert sweep.mean >= 1.0 and switch.mean >= 1.0
        assert switch.mean <= sweep.mean + 1e-9

    def test_ratio_floors_por_and_ptr(self):
        por = run_experiment(ExperimentSpec("por_ratios", (16,), 40, seed=7))
        ptr = run_experiment(ExperimentSpec("ptr_ratios", (16,), 20, seed=7))
        for report in (por, ptr):
            for row in report.rows:
                assert row.mean >= 1.0 - 1e-9
        assert not por.failures and not ptr.failures


class TestDeterminismAndFailures:
    def test_identical_runs_identical_bytes(self):
        spec = ExperimentSpec("lor_ratio", (20, 30), 10, seed=42)
        a, b = run_experiment(spec), run_experiment(spec)
        assert report_to_csv(a) == report_to_csv(b)
        assert report_to_json(a) == report_to_json(b)
        assert a == b  # runtime differs but is excluded from equality

    def test_per_trial_failures_do_not_abort(self):
        # block shuffling needs a perfect-square side; every trial fails
        # and is recorded, and the run still returns a report
        report = run_experiment(ExperimentSpec(
            "ltr_cycle_dist", (5,), 3, distribution="block-random", seed=1))
        assert report.rows == ()
        assert len(report.failures) == 3
        assert all("NotPerfectSquare" in msg for _, _, msg in report.failures)

    def test_fallback_layout_warns_once_per_size(self, caplog):
        # 6x6 with k = 6 has no square tiling, 9x9 with k = 9 has one; the
        # layout is drawn once per size, not once per trial
        _square_layout.cache_clear()
        with caplog.at_level(logging.WARNING, logger="lattice_rearrange.gen"):
            run_experiment(ExperimentSpec("ptr_ratios", (6, 9), 3, "pattern-a", seed=4))
        assert [rec.getMessage() for rec in caplog.records] == [
            "blocks pattern fell back to contiguous index runs for 6x6, k=6 "
            "(no square tiling fits)"]

    def test_runtime_recorded_but_not_emitted(self):
        report = run_experiment(ExperimentSpec("lor_ratio", (10,), 2, seed=0))
        assert report.runtime_seconds > 0
        assert "runtime" not in report_to_json(report)


class TestEmission:
    def test_golden_csv_fixture(self):
        report = run_experiment(ExperimentSpec("lor_ratio", (10,), 5, seed=1))
        assert report_to_csv(report) == (
            "size,statistic,mean,std,trials,seed\n"
            "10,opt_travel_over_m_squared,0.3,0.05477225575051662,5,1\n")

    def test_empty_report_is_header_only(self):
        spec = ExperimentSpec("lor_ratio", (10,), 5, seed=1)
        empty = ExperimentReport(spec, ())
        assert report_to_csv(empty) == "size,statistic,mean,std,trials,seed\n"

    def test_csv_keeps_full_float_precision(self):
        report = run_experiment(ExperimentSpec("lor_ratio", (9,), 4, seed=5))
        row = report.rows[0]
        text = report_to_csv(report)
        assert repr(row.mean) in text and repr(row.std) in text

    def test_mean_sums_left_to_right(self):
        # ten 0.1s sum to 0.9999999999999999 left to right; the compensated
        # sum() of Python 3.12 and later gives 1.0
        mean, _ = _mean_std([0.1] * 10)
        assert mean == 0.9999999999999999 / 10


# sha256 of report_to_json for every (experiment, allowed distribution) pair,
# sizes (6, 9), 3 trials, seed 4: pins every instance draw and every solver
# statistic, including the 2D uniform and typed k=4 draws and the recorded
# NotPerfectSquare failures of block-random at size 6
REPORT_DIGESTS = {
    ("lor_ratio", "uniform"): "4c5ac36cbdc3fd34ee5a653fdac8ae0a0a4dab09ca97cc94fbf96cfeb7cac111",
    ("lor_ratio", "10-random"): "1cf9ddadd88eea92e9e53a96daaa68335ec350a6c898973788cd07dca84a2242",
    ("lor_ratio", "sqrt-random"): "fd4d490b65c229869fb8a879070a26336d99337e0799f0224189818fe962ec97",
    ("lor_greedy_vs_opt", "uniform"): "a4c1bf22c0071936e0458420eb6ceccee597bff3cb529c66491ea581b79d52ab",
    ("lor_greedy_vs_opt", "10-random"): "c3ad5144724994a343e02ae6fd2ecdc4427a0af0f77e061e979627464b91f5e6",
    ("lor_greedy_vs_opt", "sqrt-random"): "fde3fff9429d49decbac3010e3190e27cd0a6ec4dcc72da882788cc097150d27",
    ("ltr_cycle_dist", "uniform"): "5a4c897a85bbc29c52ad64600388a3a9dca5503948c4c1fd2a794c1f14915d3a",
    ("ltr_cycle_dist", "column-random"): "8c43aaa0bd4a899f34a45a488e84fe5ed4ffef10017a0c508c72b4e3c39a8e8e",
    ("ltr_cycle_dist", "block-random"): "e5e5cde5bd058d2aa7d9d173154176c170fa7a4c51f14c013cf8f2130280efee",
    ("ltr_total_vs_cycles", "uniform"): "43382a8815c54a631832fd857742423d623ad590663bb69d2ee54e2fcabccfff",
    ("ltr_total_vs_cycles", "column-random"): "0e3bdde203190f22173641324d84dea51cf6b5cc3fb96c093d4c587ae13c4721",
    ("ltr_total_vs_cycles", "block-random"): "73b7e0f0f41c601b94e9e267ac2b75e80af06d824bb630be572032b5a48fdf57",
    ("por_ratios", "typed-k4"): "4a31ba7ad4b00735a2a8d71e3e55105b6a646bf8b4339b471efdce0364adeb96",
    ("ptr_ratios", "typed-k4"): "1a3c0696fa523d8228f0d9563446366fac288a4fc46b52bf0b8f16dc74cc2690",
    ("ptr_ratios", "pattern-a"): "b6e196102e7d54f96117a192c8f4c967ec813577b0fc98e118144a2cffbb377b",
    ("ptr_ratios", "pattern-b"): "44668c4b2a75ef012bbbb14f65681ae09cfb638336673523692ddedd8d00462f",
    ("cycle_stats", "uniform"): "db22454e3ffdef060cff493656e3d515e5c0891573d7acc5607a69bc4e4ec497",
    ("cycle_stats", "10-random"): "00d484ab01535ecb94f80936f0d39f6149002d9d3bc4d80d5d1e2c200a34b579",
    ("cycle_stats", "sqrt-random"): "ffea008d078955071d2d31e1c1473c17c04f4cfd7451936096dc2f1b6cc45fc3",
}


def test_report_digests_cover_every_pair():
    pairs = {(exp, dist) for exp, (allowed, _, _) in EXPERIMENTS.items() for dist in allowed}
    assert set(REPORT_DIGESTS) == pairs


@pytest.mark.parametrize("experiment,distribution", sorted(REPORT_DIGESTS))
def test_report_json_digest(experiment, distribution):
    report = run_experiment(ExperimentSpec(experiment, (6, 9), 3, distribution, seed=4))
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[(experiment, distribution)]
