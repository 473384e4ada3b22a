from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq
from scipy.stats import chi2, kstest, norm

from gaussctm import validation
from gaussctm.validation import (
    DF,
    EXCLUDED_WEEKDAYS,
    MIN_SAMPLE,
    N_BINS,
    PAIR_SET,
    TAUS,
    FlowSeries,
    SlotSample,
    chi2_normality,
    cumulative_pvalue_curve,
    ingest,
    linear_combination_tests,
    slot_samples,
)
from gaussctm.validation import TestResult as FitResult


def minute_series(site="s1", days=5, start="2018-06-04", hours=(4, 11),
                  value=1500.0):
    """Per-minute constant-flow series over the morning window."""
    t0 = datetime.fromisoformat(start)
    times, flows = [], []
    for day in range(days):
        base = t0 + timedelta(days=day)
        for minute in range(hours[0] * 60, hours[1] * 60):
            times.append(base + timedelta(minutes=minute))
            flows.append(value)
    return FlowSeries(site, times, np.asarray(flows))


class TestIngest:
    def test_csv_parsing_and_skip_reasons(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "site,timestamp,flow\n"
            "s1,2018-06-04T04:00:00,1500\n"
            "s1,2018-06-04T04:01:00,1510\n"
            "s1,not-a-time,1500\n"
            "s1,2018-06-04T04:02:00,-3\n"
            "s1,2018-06-04T04:01:00,1490\n"
            "s1,2018-06-04T04:03:00\n"
            "s2,2018-06-04T04:00:00,900\n"
        )
        series, report = ingest(path)
        assert set(series) == {"s1", "s2"}
        np.testing.assert_array_equal(series["s1"].flows, [1500.0, 1510.0])
        assert report.rows == 7
        assert report.skipped == 4
        assert report.reasons == {
            "unparseable field": 1,
            "negative flow": 1,
            "non-increasing timestamp": 1,
            "bad column count": 1,
        }


class TestSlotSamples:
    def test_slot_count_and_pooling(self):
        series = minute_series(days=5)  # Mon-Fri; Friday excluded
        samples = slot_samples(series, tau=5)
        assert len(samples) == (11 - 4) * 60 // 5  # 84 slots
        assert all(s.size == 5 * 4 for s in samples)  # 4 retained days
        assert samples[0].slot == 1

    def test_weekends_and_fridays_excluded(self):
        series = minute_series(days=7, start="2018-06-08")  # Fri-Thu
        samples = slot_samples(series, tau=10)
        assert all(s.size == 4 * 10 for s in samples)  # Mon-Thu only

    def test_weekend_only_data_is_empty(self):
        series = minute_series(days=2, start="2018-06-09")  # Sat, Sun
        samples = slot_samples(series, tau=1)
        assert all(s.size == 0 for s in samples)

    def test_readings_outside_window_dropped(self):
        series = minute_series(days=1, hours=(3, 12))
        samples = slot_samples(series, tau=20)
        assert sum(s.size for s in samples) == (11 - 4) * 60

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            slot_samples(minute_series(), tau=3)


def engineered_sample():
    """100 points with exact sample mean 0 and MLE std 1 whose decile
    counts are (20, 0, 10, ..., 10): chi-squared statistic exactly 20."""
    fixed = np.array([norm.ppf((b + (k + 0.5) / 10.0) / 10.0)
                      for b in range(2, 9) for k in range(10)])
    S, T = fixed.sum(), (fixed ** 2).sum()

    def resid(u):
        v = (-S - 20.0 * u) / 10.0
        return 20.0 * u * u + 10.0 * v * v + T - 100.0

    u = brentq(resid, -3.0, -1.3)
    v = (-S - 20.0 * u) / 10.0
    assert u < norm.ppf(0.1) and v > norm.ppf(0.9)
    return np.concatenate([np.full(20, u), fixed, np.full(10, v)])


class TestChi2Normality:
    def test_perfectly_balanced_sample(self):
        x = norm.ppf((np.arange(100) + 0.5) / 100.0)
        res = chi2_normality(x)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.size == 100

    def test_engineered_statistic(self):
        res = chi2_normality(engineered_sample())
        assert res.statistic == pytest.approx(20.0, abs=1e-9)
        assert res.p_value == pytest.approx(chi2.sf(20.0, DF), rel=1e-12)
        assert res.p_value == pytest.approx(0.00556968, abs=1e-7)

    def test_affine_invariance(self):
        x = engineered_sample()
        base = chi2_normality(x).statistic
        assert chi2_normality(37.0 + 250.0 * x).statistic == pytest.approx(
            base, abs=1e-9)

    def test_small_sample_skipped(self):
        res = chi2_normality(np.ones(MIN_SAMPLE - 1))
        assert res.skipped
        assert np.isnan(res.p_value)

    def test_constant_sample_rejected_outright(self):
        res = chi2_normality(np.full(120, 5.0))
        assert res.statistic == np.inf
        assert res.p_value == 0.0

    def test_null_calibration(self):
        rng = np.random.default_rng(0)
        pvals = np.array([chi2_normality(rng.normal(size=120)).p_value
                          for _ in range(2000)])
        reject = np.mean(pvals < 0.05)
        assert abs(reject - 0.05) < 0.015
        # the statistic is discrete at n = 120, so uniformity of the
        # p-values only holds up to the bin granularity
        assert kstest(pvals, "uniform").statistic < 0.08

    def test_detects_heavy_tails(self):
        rng = np.random.default_rng(1)
        pvals = np.array([
            chi2_normality(rng.standard_t(df=2, size=240)).p_value
            for _ in range(200)])
        assert np.mean(pvals < 0.05) > 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.integers(MIN_SAMPLE, 400).flatmap(lambda n: arrays(
        np.float64, n, elements=st.floats(-1e4, 1e4))))
    def test_bins_and_p_value_are_scipy_stats_exactly(self, x):
        mean, std = float(x.mean()), float(x.std())
        assume(std > 0)
        binned = []
        searchsorted = np.searchsorted

        def spy(edges, values):
            binned.append(np.array(edges))
            return searchsorted(edges, values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validation.np, "searchsorted", spy)
            res = chi2_normality(x)
        assert len(binned) == 1
        edges = norm.ppf(np.arange(1, N_BINS) / N_BINS, loc=mean, scale=std)
        assert np.array_equal(binned[0], edges)
        assert res.p_value == chi2.sf(res.statistic, DF)


class TestLinearCombinations:
    def test_pair_set_size(self):
        assert len(PAIR_SET) == 10

    def test_zero_partner_reduces_to_scaling(self):
        x = engineered_sample()
        si = SlotSample(5, 3, x)
        sj = SlotSample(5, 3, np.zeros(len(x)))
        results = linear_combination_tests(si, sj, 5, pairs=((2, 1),))
        assert results[0].statistic == pytest.approx(20.0, abs=1e-9)
        assert results[0].label == "(2,1)"

    def test_misaligned_samples_rejected(self):
        a = SlotSample(5, 3, np.zeros(100))
        with pytest.raises(ValueError):
            linear_combination_tests(a, SlotSample(5, 4, np.zeros(100)), 5)
        with pytest.raises(ValueError):
            linear_combination_tests(a, SlotSample(5, 3, np.zeros(99)), 5)

    def test_full_pair_set_on_independent_normals(self):
        rng = np.random.default_rng(2)
        si = SlotSample(5, 1, rng.normal(1500.0, 100.0, 200))
        sj = SlotSample(5, 1, rng.normal(900.0, 80.0, 200))
        results = linear_combination_tests(si, sj, 5)
        assert len(results) == 10
        assert all(not r.skipped for r in results)
        assert all(r.p_value > 1e-4 for r in results)


class TestCumulativeCurve:
    def res(self, slot, p, skipped=False):
        return FitResult(slot, 1.0, p, 0.0, 1.0, 100, skipped=skipped)

    def test_running_sum_and_bands(self):
        results = [self.res(1, 0.005), self.res(2, 0.03),
                   self.res(3, 0.2), self.res(4, 0.7)]
        cum, bands = cumulative_pvalue_curve(results)
        np.testing.assert_allclose(cum, [0.005, 0.035, 0.235, 0.935])
        assert bands == ["0-0.01", "0.01-0.05", "0.05-0.5", "0.5-1"]

    def test_skipped_contribute_zero(self):
        results = [self.res(1, 0.5), self.res(2, np.nan, skipped=True),
                   self.res(3, 0.5)]
        cum, bands = cumulative_pvalue_curve(results)
        np.testing.assert_allclose(cum, [0.5, 0.5, 1.0])
        assert bands[1] == "skipped"

    def test_unsorted_results_rejected(self):
        with pytest.raises(ValueError):
            cumulative_pvalue_curve([self.res(2, 0.5), self.res(1, 0.5)])

    def test_null_slope_is_one_half(self):
        rng = np.random.default_rng(3)
        n = 420
        results = [
            chi2_normality(rng.normal(1500.0, 120.0, size=120))
            for _ in range(n)]
        for k, r in enumerate(results):
            r.slot = k + 1
        cum, _ = cumulative_pvalue_curve(results)
        slope = cum[-1] / n
        assert abs(slope - 0.5) < 3.0 * np.sqrt(1.0 / (12.0 * n))
