"""Benchmark harness tests: spec validation, bands, determinism, emission."""

import math

import pytest

from lattice_rearrange.bench import (
    ExperimentReport,
    ExperimentSpec,
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

    def test_distribution_must_fit_experiment(self):
        with pytest.raises(ValueError):
            ExperimentSpec("lor_ratio", (10,), distribution="column-random")
        with pytest.raises(ValueError):
            ExperimentSpec("por_ratios", (10,), distribution="uniform")

    def test_defaults_resolve(self):
        assert ExperimentSpec("lor_ratio", (10,)).distribution == "uniform"
        assert ExperimentSpec("ptr_ratios", (4,)).distribution == "pattern-a"
        assert ExperimentSpec("por_ratios", (8,)).distribution == "typed-k4"


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
