import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import ndtr

from gaussctm import stationary
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.model import SegmentSpec
from gaussctm.stationary import (
    DiscreteMarginal,
    FixedPointError,
    StationaryPoint,
    cell_marginal,
    deterministic_metric,
    joint_marginal,
    stationary_fixed_point,
    stationary_metric,
)

F = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))


def seg(d=3, ell=1.0, lam=800.0, nu=1800.0):
    return SegmentSpec.uniform(d, ell, F, lam, nu)


def point_1d(mu, var, ell=1.0):
    """Hand-built stationary point on a one-cell system."""
    sys = seg(d=1, ell=ell).system()
    return StationaryPoint(sys, np.array([mu]), np.array([[var]]), 0.0, 0.0, 0)


class TestFixedPoint:
    def test_no_arrivals(self):
        fp = stationary_fixed_point(seg(d=2, lam=0.0))
        np.testing.assert_allclose(fp.mu, 0.0, atol=1e-9)
        np.testing.assert_allclose(fp.V, 0.0, atol=1e-9)

    def test_free_flow_level(self):
        fp = stationary_fixed_point(seg(d=3, lam=800.0))
        np.testing.assert_allclose(fp.mu, 10.0, atol=1e-4)
        assert fp.drift_residual < 1e-6
        assert fp.lyapunov_residual < 1e-6
        np.testing.assert_allclose(fp.V, fp.V.T)
        assert np.all(np.diag(fp.V) > 0)

    def test_overloaded_segment_converges(self):
        fp = stationary_fixed_point(
            SegmentSpec.uniform(2, 11.0 / 108.0, F, 2520.0, 1200.0))
        assert fp.drift_residual < 1e-6
        # bottleneck at the exit keeps the segment congested
        assert np.all(fp.mu > 15.0)

    def test_variance_halves_when_cells_double(self):
        fp1 = stationary_fixed_point(
            SegmentSpec.uniform(2, 11.0 / 108.0, F, 800.0, 1800.0))
        fp2 = stationary_fixed_point(
            SegmentSpec.uniform(2, 22.0 / 108.0, F, 800.0, 1800.0))
        ratio = np.diag(fp1.V) / np.diag(fp2.V)
        np.testing.assert_allclose(ratio, 2.0, rtol=0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_iteration_fails_fast(self):
        # dt * v_f / ell = 1.33: forward Euler is unstable and V overflows;
        # the default max_iter would otherwise spin for minutes.  The
        # typed error is the only signal: numpy's overflow warning fails
        t0 = time.perf_counter()
        with pytest.raises(FixedPointError, match="diverged"):
            stationary_fixed_point(SegmentSpec.uniform(5, 0.06, F, 1200.0, 1200.0))
        assert time.perf_counter() - t0 < 1.0


class TestContinuation:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.floats(0.1, 1.0), st.floats(0.0, 2500.0),
           st.floats(300.0, 2500.0))
    def test_matches_the_euler_oracle(self, d, ell, lam, nu):
        # at lam = nu, or with both at or above the capacity of 1440 veh/h
        # where the flux branches meet, cells sit on a kink and J may be
        # singular (the fallback tests cover that); near lam = nu the
        # queue fills at |lam - nu|, and the Euler oracle from zero takes
        # about 1 / |lam - nu| iterations
        assume(abs(lam - nu) >= 100.0 and min(lam, nu) < 1440.0)
        spec = SegmentSpec.uniform(d, ell, F, lam, nu)
        fp = stationary_fixed_point(spec)
        oracle = stationary._euler(spec.system(), 0.001, 1e-9, 2_000_000)
        assert fp.method == "ptc"
        assert np.linalg.eigvals(fp.system.drift_jacobian(fp.mu)).real.max() < 0
        # the oracle stops about 1e-9 / (dt |slowest mode|) from the point
        np.testing.assert_allclose(fp.mu, oracle.mu, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(fp.V, oracle.V, rtol=1e-7,
                                   atol=1e-7 * max(1.0, np.abs(oracle.V).max()))

    def test_congested_two_class_point(self):
        # the congested control point (spill-back from the exit): Euler
        # needs about 11k iterations at the slowest drift mode, -1.88 / h
        p = TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065,
                           L2=0.0165, N=3, beta=0.25)
        share = np.array([0.8 * p.L1 * p.v_f1, 0.2 * p.L2 * p.v_f2])
        nu = 2 / 3 * p.v_c * p.beta * p.N * share / share.sum() / [p.L1, p.L2]
        spec = SegmentSpec(10, (1.0,) * 10, TwoClassFlux(p), (3840.0, 960.0),
                           tuple(nu))
        fp = stationary_fixed_point(spec)
        oracle = stationary._euler(spec.system(), 0.001, 1e-9, 2_000_000)
        assert fp.method == "ptc" and fp.iterations < oracle.iterations / 10
        np.testing.assert_allclose(fp.mu, oracle.mu, rtol=1e-7)
        np.testing.assert_allclose(fp.V, oracle.V, rtol=1e-7,
                                   atol=1e-7 * np.abs(oracle.V).max())
        assert fp.lyapunov_residual < 1e-9 * np.abs(fp.V).max()

    def test_non_hurwitz_point_falls_back_to_euler(self):
        # lam = nu: the exit cell sits on the kink of its departure rate,
        # where J takes the zero slope of the cap; Euler converges
        spec = SegmentSpec.uniform(2, 0.5, F, 1200.0, 1200.0)
        fp = stationary_fixed_point(spec)
        oracle = stationary._euler(spec.system(), 0.001, 1e-9, 2_000_000)
        assert fp.method == "euler"
        np.testing.assert_array_equal(fp.mu, oracle.mu)
        np.testing.assert_array_equal(fp.V, oracle.V)
        assert fp.iterations == oracle.iterations

    def test_stalled_continuation_falls_back_to_euler(self, monkeypatch):
        spec = SegmentSpec.uniform(2, 11.0 / 108.0, F, 2520.0, 1200.0)
        monkeypatch.setattr(stationary, "PTC_MAX_ITER", 3)
        fp = stationary_fixed_point(spec)
        oracle = stationary._euler(spec.system(), 0.001, 1e-9, 2_000_000)
        assert fp.method == "euler"
        np.testing.assert_array_equal(fp.mu, oracle.mu)
        np.testing.assert_array_equal(fp.V, oracle.V)

    def test_critical_load_on_short_cells_names_the_cells(self):
        # dt * v_f / ell = 2: Euler settles mu on a congested fixed point
        # at step 93 but its V update no longer contracts
        t0 = time.perf_counter()
        with pytest.raises(FixedPointError, match=r"cannot converge.*cells \[5\]"):
            stationary_fixed_point(SegmentSpec.uniform(5, 0.04, F, 1200.0, 1200.0))
        assert time.perf_counter() - t0 < 1.0

    def test_rounding_floor_above_tol_fails_fast(self):
        # mu is fixed from step 32, and the step distance never falls below
        # 2.4e-11, V's rounding floor; without the stall check this ran to
        # max_iter (about 14 min)
        t0 = time.perf_counter()
        with pytest.raises(FixedPointError,
                           match=r"reach tol 1\.000e-11.*floors at \d\.\d+e-11"):
            stationary._euler(SegmentSpec.uniform(4, 0.1, F, 1412.9, 2165.4).system(),
                              0.001, 1e-11, 2_000_000)
        assert time.perf_counter() - t0 < 2.0

    def test_divergence_names_the_cells(self):
        with pytest.raises(FixedPointError, match=r"diverged.*cells \[5\]"):
            stationary_fixed_point(SegmentSpec.uniform(5, 0.06, F, 1200.0, 1200.0))


class TestCellMarginal:
    def test_rectangle_probability(self):
        m = cell_marginal(point_1d(10.0, 4.0), 1)
        # P(9.5 < N(10, 2^2) < 10.5) = 2 Phi(0.25) - 1
        exact = 2.0 * ndtr(0.25) - 1.0
        assert abs(m.probs[10] - exact) < 1e-6

    def test_probabilities_normalized(self):
        m = cell_marginal(point_1d(10.0, 4.0), 1)
        np.testing.assert_allclose(m.probs.sum(), 1.0)
        assert abs(m.mean - 10.0) < 1e-4

    def test_zero_variance_point_mass(self):
        m = cell_marginal(point_1d(10.0, 0.0), 1)
        assert m.probs[10] == 1.0
        assert m.probs.sum() == 1.0

    def test_support_scales_with_cell_length(self):
        m = cell_marginal(point_1d(10.0, 4.0, ell=0.5), 1)
        assert m.support[1] == 2.0  # one vehicle on half a km
        assert len(m.support) == 55  # x_jam = rint(108 * 0.5) = 54

    def test_full_cell_reads_jam_density(self):
        # 12.5/108 km cells hold x_jam = 13 vehicles at jam, which read
        # rho_max: at 13 / l = 112.32 the throughput integrand gave
        # -69.1 veh/h, with mass 1.2e-3
        pt = stationary_fixed_point(
            SegmentSpec.uniform(5, 12.5 / 108.0, F, 2000.0, 1200.0))
        m = cell_marginal(pt, 1)
        assert m.support[-1] == 108.0
        assert np.array_equal(m.support[:-1], np.arange(13) * (1 / (12.5 / 108.0)))
        p = F.params
        q0 = [min(2000.0, p.w * (p.rho_max - x), p.q_max) for x in m.support]
        assert min(q0) >= 0.0
        pts, _ = joint_marginal(pt, [1, 2])
        assert pts[-1] == (108.0, 108.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            cell_marginal(point_1d(10.0, 4.0), 2)

    def test_cell_and_class_are_checked_one_by_one(self):
        # (1, 2) and (2, 0) have the in-range flat indices of cells 2 and 1
        fp = stationary_fixed_point(seg(d=3, ell=0.5, lam=1000.0, nu=1200.0))
        for cell, cls in ((1, 2), (2, 0), (0, 1), (4, 1)):
            with pytest.raises(ValueError, match="out of range"):
                cell_marginal(fp, cell, cls)


class TestJointMarginal:
    def test_two_cells(self):
        fp = stationary_fixed_point(
            SegmentSpec.uniform(2, 11.0 / 108.0, F, 800.0, 1800.0))
        pts, probs = joint_marginal(fp, [1, 2])
        np.testing.assert_allclose(probs.sum(), 1.0)
        # marginalizing the joint recovers the per-cell marginal
        m1 = cell_marginal(fp, 1)
        marg = np.zeros(len(m1.support))
        for (x1, _), p in zip(pts, probs):
            marg[int(round(x1 * 11.0 / 108.0))] += p
        np.testing.assert_allclose(marg, m1.probs, atol=2e-3)

    def test_three_cells_repeatable(self):
        # three cells take scipy's randomized QMC cdf: two identical calls
        # must still give identical probabilities
        fp = stationary_fixed_point(
            SegmentSpec.uniform(3, 3.0 / 108.0, F, 1400.0, 1800.0))
        pts, probs = joint_marginal(fp, [1, 2, 3])
        assert len(pts) == 64
        assert np.array_equal(probs, joint_marginal(fp, [1, 2, 3])[1])
        m1 = cell_marginal(fp, 1)
        marg = np.zeros(len(m1.support))
        for (x1, _, _), p in zip(pts, probs):
            marg[int(round(x1 * 3.0 / 108.0))] += p
        np.testing.assert_allclose(marg, m1.probs, atol=2e-3)

    def test_too_many_cells(self):
        fp = stationary_fixed_point(
            SegmentSpec.uniform(4, 11.0 / 108.0, F, 800.0, 1800.0))
        with pytest.raises(ValueError):
            joint_marginal(fp, [1, 2, 3, 4])

    def test_cell_index_validation(self):
        # cell 0 would index -1, the last cell
        fp = stationary_fixed_point(seg(d=3, ell=0.5, lam=1000.0, nu=1200.0))
        for cells in ([0, 1], [1, 4]):
            with pytest.raises(ValueError, match="out of range"):
                joint_marginal(fp, cells)


class TestMetrics:
    def test_constant_function(self):
        m = cell_marginal(point_1d(10.0, 4.0), 1)
        assert stationary_metric(lambda x: 1.0, m) == pytest.approx(1.0, abs=1e-12)

    def test_identity_recovers_mean(self):
        m = cell_marginal(point_1d(10.0, 4.0), 1)
        assert abs(stationary_metric(lambda x: x, m) - m.mean) < 1e-12

    def test_linear_function_matches_deterministic(self):
        m = cell_marginal(point_1d(10.0, 4.0), 1)
        f = lambda x: 3.0 * x + 7.0
        assert abs(stationary_metric(f, m) - deterministic_metric(f, m)) < 1e-4

    def test_concave_function_jensen_gap(self):
        # a min() metric is concave, so the stochastic value sits below
        # the deterministic plug-in value
        m = cell_marginal(point_1d(22.0, 16.0), 1)
        f = lambda x: min(80.0 * x, 1800.0)
        assert stationary_metric(f, m) < deterministic_metric(f, m)

    def test_light_traffic_throughput(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 300.0, 1200.0)
        fp = stationary_fixed_point(spec)
        m = cell_marginal(fp, 2)
        f = lambda x: min(80.0 * x, 1800.0, 1200.0)
        assert abs(stationary_metric(f, m) - 300.0) < 6.0

    def test_joint_metric(self):
        fp = stationary_fixed_point(
            SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0))
        jm = joint_marginal(fp, [1, 2])
        total = stationary_metric(lambda x: x[0] + x[1], jm)
        assert abs(total - (fp.mu[0] + fp.mu[1])) < 0.05
