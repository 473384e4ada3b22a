import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussctm import gaussian
from gaussctm.cli import example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.gaussian import (
    cross_covariance,
    fundamental_solution,
    solve_cumulative_moments,
    solve_fluid,
    solve_moments,
)
from gaussctm.model import SegmentSpec
from gaussctm.simulator import simulate
from gaussctm.stationary import stationary_fixed_point
from gaussctm.traveltime import _weights

F = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))

# A segment whose rates stay on a single linear branch everywhere:
# arrivals = w (rho_max - rho), departures = v_f rho, so the density is
# an Ornstein-Uhlenbeck process with
#   a = -(v_f + w),  rho* = w rho_max / (v_f + w),
#   sigma^2 = 2 v_f w rho_max / (v_f + w)   (at the stationary point)
OU_P = DaganzoParams(v_f=40.0, w=30.0, rho_max=50.0, q_max=1e9)
OU_A = -(OU_P.v_f + OU_P.w)
OU_RHO = OU_P.w * OU_P.rho_max / (OU_P.v_f + OU_P.w)
OU_SIG2 = 2.0 * OU_P.v_f * OU_P.w * OU_P.rho_max / (OU_P.v_f + OU_P.w)


# 0.05 h in 500 RK4 steps of 1e-4 h, and a non-uniform grid whose
# intervals take RK4 steps of the same length
OU_GRID = np.linspace(0.0, 0.05, 501)
OU_SPARSE = np.array([0.0, 0.003, 0.01, 0.02, 0.05])


def ou_spec():
    return SegmentSpec.uniform(1, 1.0, DaganzoFlux(OU_P), 1e9, 1e9)


def all_solvers(spec, rho0):
    """The three solvers from rho0 on `spec`, as functions of the grid."""
    n = len(rho0)
    return (lambda grid, **kw: solve_fluid(spec, rho0, grid, **kw),
            lambda grid, **kw: solve_moments(spec, rho0, np.zeros((n, n)), grid,
                                             **kw),
            lambda grid, **kw: solve_cumulative_moments(spec, rho0, grid, **kw))


class TestSolveFluid:
    def test_stationary_start_stays_put(self):
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        _, rho = solve_fluid(spec, np.full(3, 10.0), np.linspace(0.0, 0.5, 501))
        np.testing.assert_allclose(rho, 10.0, atol=1e-9)

    def test_no_arrivals_drains_to_zero(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 0.0, 1800.0)
        _, rho = solve_fluid(spec, np.full(2, 10.0), np.linspace(0.0, 1.0, 1001))
        np.testing.assert_allclose(rho[-1], 0.0, atol=1e-6)

    def test_relaxes_to_free_flow_level(self):
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        _, rho = solve_fluid(spec, np.zeros(3), np.linspace(0.0, 1.0, 1001))
        np.testing.assert_allclose(rho[-1], 10.0, atol=1e-3)

    def test_step_validation(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0)
        with pytest.raises(ValueError):
            solve_fluid(spec, np.zeros(2), np.linspace(0.0, 1.0, 1001), step=0.0)
        for solve in all_solvers(spec, np.zeros(2)):
            for step in (0.0, -1e-3):
                with pytest.raises(ValueError):
                    solve([0.0, 0.1], step=step)


class TestSolveMoments:
    def test_covariance_symmetric_and_psd(self):
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        tl = solve_moments(spec, np.full(3, 10.0), np.zeros((3, 3)),
                           np.linspace(0.0, 0.5, 501))
        for V in tl.V[:: len(tl.V) // 10]:
            np.testing.assert_array_equal(V, V.T)
            w = np.linalg.eigvalsh(V)
            assert w.min() > -1e-9 * max(np.trace(V), 1.0)

    def test_rejects_bad_initial_covariance(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0)
        grid = np.linspace(0.0, 0.1, 101)
        bad = ((np.array([[1.0, 2.0], [0.0, 1.0]]), "semidefinite"),
               (-np.eye(2), "semidefinite"),
               (np.eye(3), r"shape \(2, 2\), got \(3, 3\)"),
               (np.zeros(2), r"shape \(2, 2\), got \(2,\)"))
        for V0, match in bad:
            with pytest.raises(ValueError, match=match):
                solve_moments(spec, np.zeros(2), V0, grid)
        # a call that still passes a mean deviation M0 before V0
        with pytest.raises(ValueError, match=r"shape \(2, 2\), got \(2,\)"):
            solve_moments(spec, np.zeros(2), np.zeros(2), np.zeros((2, 2)), grid)

    def test_ou_mean_and_variance(self):
        for grid in (OU_GRID, OU_SPARSE):
            tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                               grid, step=1e-4)
            t = tl.times
            np.testing.assert_array_equal(t, grid)
            exact = OU_SIG2 / (2.0 * abs(OU_A)) * (1.0 - np.exp(2.0 * OU_A * t))
            np.testing.assert_allclose(tl.V[:, 0, 0], exact, atol=1e-6)
            np.testing.assert_allclose(tl.rho[:, 0], OU_RHO, atol=1e-9)

    def test_ou_fundamental_solution(self):
        tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                           OU_GRID, step=1e-4)
        sparse = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                               OU_SPARSE, step=1e-4)
        # every 20th grid point, the last included, and every sparse point
        for tl, times in ((tl, tl.times[::20]), (sparse, sparse.times)):
            phi = [fundamental_solution(tl, 0.0, t)[0, 0] for t in times]
            np.testing.assert_allclose(phi, np.exp(OU_A * times), rtol=1e-8)

    def test_mean_shift_decays_through_linearization(self):
        # the mean of the linearized deviation from M0 is Phi(t, 0) M0,
        # carried from grid point to grid point as M' = dF M would be
        for grid in (OU_GRID, OU_SPARSE):
            tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                               grid, step=1e-4)
            M = [np.array([0.5])]
            for s, t in zip(tl.times, tl.times[1:]):
                M.append(fundamental_solution(tl, s, t) @ M[-1])
            np.testing.assert_allclose(np.array(M)[:, 0],
                                       0.5 * np.exp(OU_A * tl.times), rtol=1e-8)

    def test_coarse_grid_matches_fine_grid(self):
        # each 0.01 h interval of the coarse grid takes the ten 1e-3 h RK4
        # steps that the fine grid takes one per interval
        spec = SegmentSpec.uniform(4, 0.5, F, 1400.0, 1200.0)
        rho0, V0 = np.full(4, 20.0), np.diag([1.0, 2.0, 3.0, 4.0])
        fine, coarse = np.linspace(0.0, 0.1, 101), np.linspace(0.0, 0.1, 11)
        a, b = (solve_moments(spec, rho0, V0, g) for g in (fine, coarse))
        assert [len(taken) for taken in b.substeps] == [10] * 10
        for x, y in ((a.rho, b.rho), (a.V, b.V),
                     (solve_fluid(spec, rho0, fine)[1],
                      solve_fluid(spec, rho0, coarse)[1])):
            np.testing.assert_allclose(x[::10], y, rtol=1e-12, atol=1e-12)

    def test_jacobian_memo_is_exact_on_the_asymmetric_network(self):
        # the Daganzo Jacobian depends on the branch masks alone, so a
        # solve that reads it from the per-regime memo equals, bit for
        # bit, one that evaluates it afresh at every RK4 stage
        def road(v_f):
            return DaganzoFlux(DaganzoParams(v_f=v_f, w=20.0, rho_max=108.0,
                                             q_max=1800.0))
        base, fast, slow = road(80.0), road(100.0), road(60.0)
        fluxes = {"r1": base, "r2": fast, "r3": fast, "r4": slow, "r5": slow,
                  "r6": base}
        net = example_network(5, 1.0, fluxes, 0.25, 0.75, 0.75, 0.5, 1800.0, 900.0)
        memo, fresh = net.system(), net.system()
        k, n = fresh.kernel, fresh.n_state

        def no_memo(rho):
            dq = np.bincount(k.rows * n + k.cols, weights=k.jacobian(rho),
                             minlength=fresh.n_trans * n)
            return dq.reshape(fresh.n_trans, n)
        fresh.rate_jacobian = no_memo
        grid = np.arange(0.0, 601.0, 100.0) / 3600.0
        a, b = (solve_moments(s, np.zeros(n), np.zeros((n, n)), grid)
                for s in (memo, fresh))
        assert len(memo._jac_memo) > 1 and not fresh._jac_memo
        assert sum(map(len, a.substeps)) == 168  # 672 Jacobians
        phi = [fundamental_solution(tl, 0.0, tl.times[-1]) for tl in (a, b)]
        for x, y in ((a.rho, b.rho), (a.V, b.V), phi):
            assert x.tobytes() == y.tobytes()

    def test_long_run_matches_fixed_point(self):
        spec = SegmentSpec.uniform(5, 11.0 / 108.0, F, 1400.0, 1200.0)
        fp = stationary_fixed_point(spec)
        tl = solve_moments(spec, fp.mu, np.zeros((5, 5)),
                           np.linspace(0.0, 6.0, 6001), step=1e-3)
        assert np.linalg.norm(tl.V[-1] - fp.V) < 1e-4
        np.testing.assert_allclose(tl.rho[-1], fp.mu, atol=1e-6)


class TestCrossCovariance:
    def test_equal_times_reduce_to_variance(self):
        tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                           OU_GRID, step=1e-4)
        t = tl.times[200]
        np.testing.assert_allclose(cross_covariance(tl, t, t), tl.V[200])

    def test_ou_exponential_decay(self):
        tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                           OU_GRID, step=1e-4)
        s, t = tl.times[100], tl.times[400]
        exact = tl.V[100, 0, 0] * np.exp(OU_A * (t - s))
        np.testing.assert_allclose(cross_covariance(tl, s, t)[0, 0], exact,
                                   atol=1e-7)

    def test_order_and_grid_validation(self):
        tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                           OU_GRID, step=1e-4)
        with pytest.raises(ValueError):
            cross_covariance(tl, tl.times[10], tl.times[5])
        with pytest.raises(ValueError):
            fundamental_solution(tl, tl.times[10], tl.times[5])
        with pytest.raises(ValueError):
            tl.index_of(0.05 + 1.0)
        with pytest.raises(ValueError):  # between two grid points
            tl.index_of(0.5 * (tl.times[10] + tl.times[11]))


class TestFundamentalSolution:
    def test_ou_from_a_later_start(self):
        tl = solve_moments(ou_spec(), np.array([OU_RHO]), np.zeros((1, 1)),
                           OU_GRID, step=1e-4)
        s = tl.times[100]
        for k in (100, 250, 500):
            t = tl.times[k]
            np.testing.assert_allclose(fundamental_solution(tl, s, t)[0, 0],
                                       np.exp(OU_A * (t - s)), rtol=1e-8)

    def test_carries_the_covariance_across_time(self):
        # Gamma(s, t) = V(s) Phi(t, s)^T on a nonlinear instance
        spec = SegmentSpec.uniform(4, 0.5, F, 1400.0, 1200.0)
        tl = solve_moments(spec, np.full(4, 20.0), np.diag([1.0, 2.0, 3.0, 4.0]),
                           np.linspace(0.0, 0.1, 101))
        s, t = tl.times[20], tl.times[80]
        phi = fundamental_solution(tl, s, t)
        np.testing.assert_allclose(cross_covariance(tl, s, t), tl.V[20] @ phi.T,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(fundamental_solution(tl, t, t), np.eye(4))


class TestCumulativeMoments:
    def test_pure_poisson_arrivals(self):
        # huge supply, zero departures: Y_0(t) is Poisson(lam * t)
        p = DaganzoParams(v_f=1e-9, w=1e9, rho_max=1e9, q_max=1e9)
        spec = SegmentSpec.uniform(1, 1.0, DaganzoFlux(p), 500.0, 0.0)
        ct = solve_cumulative_moments(spec, np.zeros(1), [0.0, 1.0], step=1e-2)
        np.testing.assert_allclose(ct.y_mean[-1][0], 500.0, rtol=1e-9)
        np.testing.assert_allclose(ct.cov[-1][0, 0], 500.0, rtol=1e-9)

    def test_initial_point_is_zero(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0)
        ct = solve_cumulative_moments(spec, np.full(2, 10.0), [0.0, 0.1])
        np.testing.assert_array_equal(ct.y_mean[0], 0.0)
        np.testing.assert_array_equal(ct.cov[0], 0.0)

    def test_grid_validation(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0)
        with pytest.raises(ValueError):
            solve_cumulative_moments(spec, np.full(2, 10.0), [0.0, 0.1, 0.1])
        for solve in all_solvers(spec, np.full(2, 10.0)):
            for grid in ([0.0, 0.1, 0.1], [0.0, 0.2, 0.1], [], 0.1):
                with pytest.raises(ValueError):
                    solve(grid)
            # a non-finite point failed in the step count, or not at all
            for grid in ([0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]):
                with pytest.raises(ValueError, match="time grid must be finite"):
                    solve(grid)
            with pytest.raises(ValueError, match="step"):
                solve([0.0, 0.1], step=np.nan)

    def test_mean_counts_match_fluid_flow(self):
        # stationary free flow: every boundary carries lam, so the mean
        # cumulative count over t hours is lam * t
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        ct = solve_cumulative_moments(spec, np.full(3, 10.0), [0.0, 0.25])
        np.testing.assert_allclose(ct.y_mean[-1], 200.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# invariants on random segments

TC = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2,
                                 L1=0.0065, L2=0.0165, N=3, beta=0.25))
INVARIANTS = settings(max_examples=30, deadline=None)
unit = st.floats(0.0, 1.0)


@st.composite
def segments(draw):
    """A Daganzo or two-class segment of 1-3 cells and a state inside its
    domain (for two classes, total occupancy at most the lane count)."""
    d = draw(st.integers(1, 3))
    ell = draw(st.floats(0.1, 1.0))
    if draw(st.booleans()):
        lam, nu = draw(st.floats(0.0, 2500.0)), draw(st.floats(0.0, 2500.0))
        spec = SegmentSpec.uniform(d, ell, F, lam, nu)
        rho = np.array([draw(unit) * 108.0 for _ in range(d)])
    else:
        rates = st.floats(0.0, 3000.0)
        spec = SegmentSpec.uniform(d, ell, TC, (draw(rates), draw(rates)),
                                   (draw(rates), draw(rates)))
        rho = []
        for _ in range(d):
            occ, share = draw(unit) * TC.params.N, draw(unit)
            rho += [occ * (1.0 - share) / TC.params.L1, occ * share / TC.params.L2]
        rho = np.minimum(rho, spec.system().rho_jam)
    return spec, rho, np.diag(draw(unit) * rho / ell)


def assert_symmetric_psd(C):
    np.testing.assert_array_equal(C, C.T)
    assert np.linalg.eigvalsh(C).min() >= -1e-9 * max(np.trace(C), 1.0)


def _spectral(eigenvalues):
    """A dense symmetric matrix with the given eigenvalues."""
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal(
        (len(eigenvalues),) * 2))
    C = (Q * eigenvalues) @ Q.T
    return 0.5 * (C + C.T)


def _with_entry(value):
    C = _spectral([4.0, 3.0, 2.0, 1.0, 0.5])
    C[1, 2] = C[2, 1] = value
    return C


# the shift is 1e-9 max(trace, 1): the large cases have trace 10, the
# small ones trace 1.1e-3, so that the 1 in the max sets their shift
@pytest.mark.parametrize("C, verdict", [
    (np.zeros((5, 5)), True),
    (_spectral([4.0, 3.0, 2.0, 0.0, 0.0]), True),
    (_spectral([4.0, 3.0, 2.0, 1.0, -1e-5]), False),
    (_spectral([4.0, 3.0, 2.0, 1.0, -5e-9]), True),
    (_spectral([4.0, 3.0, 2.0, 1.0, -2e-8]), False),
    (_spectral([1e-3, 1e-4, -5e-10]), True),
    (_spectral([1e-3, 1e-4, -2e-9]), False),
    (_with_entry(np.nan), False),
    (_with_entry(np.inf), False),
], ids=["zero", "rank-deficient", "negative-1e-6-trace", "inside-shift",
        "outside-shift", "inside-unit-shift", "outside-unit-shift", "nan",
        "inf"])
def test_psd_verdict_matches_the_spectrum(C, verdict):
    # the eigenvalue oracle: finite, with no eigenvalue below the shift
    oracle = bool(np.isfinite(C).all()) and bool(
        np.linalg.eigvalsh(C).min() >= -1e-9 * max(np.trace(C), 1.0))
    assert oracle == verdict
    assert gaussian._psd(C) is verdict


class TestInvariants:
    @INVARIANTS
    @given(segments())
    def test_covariance_symmetric_psd_at_every_step(self, case):
        spec, rho, V0 = case
        tl = solve_moments(spec, rho, V0, np.linspace(0.0, 0.1, 101))
        for V in tl.V:
            assert_symmetric_psd(V)

    @INVARIANTS
    @given(segments())
    def test_cumulative_covariance_symmetric_psd_at_every_point(self, case):
        spec, rho, _ = case
        ct = solve_cumulative_moments(spec, rho, np.linspace(0.0, 0.05, 11))
        assert ct.cov.shape == (11, spec.system().n_trans, spec.system().n_trans)
        for C in ct.cov:
            assert_symmetric_psd(C)


class TestDomain:
    def test_two_class_state_past_the_jam_occupancy_is_rejected(self):
        # each class at 0.9 of its jam density fills a 3-lane cell to
        # occupancy 5.4: within [0, rho_jam] class by class, but past the
        # diagram's bound, where the rates clip to 0 and their Jacobian
        # keeps its slopes
        spec = SegmentSpec.uniform(2, 0.5, TC, (1000.0, 250.0), (900.0, 100.0))
        sys = spec.system()
        rho = 0.9 * sys.rho_jam
        cell = SegmentSpec.uniform(1, 0.5, TC, (1000.0, 250.0), (900.0, 100.0)).system()
        with pytest.raises(ValueError, match="jam occupancy"):
            cell.check_domain(rho[:2])
        for solve in all_solvers(spec, rho):
            with pytest.raises(ValueError, match="jam occupancy"):
                solve([0.0, 0.01])
        with pytest.raises(ValueError, match="jam occupancy"):
            simulate(sys, np.rint(0.9 * sys.x_jam).astype(int), 0.01)

    def test_a_full_two_class_cell_is_in_the_domain(self):
        # half of each class's jam density: occupancy N exactly
        spec = SegmentSpec.uniform(2, 0.5, TC, (1000.0, 250.0), (900.0, 100.0))
        sys = spec.system()
        for solve in all_solvers(spec, 0.5 * sys.rho_jam):
            solve([0.0, 0.01])
        simulate(sys, sys.x_jam // 2, 0.01)


class TestStepSplitting:
    def test_draining_short_cell_stays_psd(self):
        # the fluid empties a 0.1 km two-class cell mid-step: the RK4
        # stages straddle the kink where the departure rate turns from
        # the cap nu (slope 0) to v_f rho (slope -v_f / l = -1080 / h),
        # and a whole step would leave V = -193 (found by TestInvariants)
        spec = SegmentSpec.uniform(1, 0.1, TC, (0.0, 0.0), (233.0, 0.0))
        tl = solve_moments(spec, np.array([1.5 / TC.params.L1, 0.0]),
                           np.zeros((2, 2)), np.linspace(0.0, 0.1, 101))
        split = [k for k, taken in enumerate(tl.substeps) if len(taken) > 1]
        assert split
        for V in tl.V:
            assert_symmetric_psd(V)
        # the propagator re-runs the split steps: Gamma(s, t) = V(s) Phi(t, s)^T
        s, t = tl.times[split[0] - 1], tl.times[split[-1] + 1]
        k = split[0] - 1
        np.testing.assert_array_equal(cross_covariance(tl, s, s), tl.V[k])
        np.testing.assert_allclose(cross_covariance(tl, s, t),
                                   tl.V[k] @ fundamental_solution(tl, s, t).T,
                                   rtol=1e-9, atol=1e-9)

    def test_non_finite_covariance_is_named(self):
        sys = SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0).system()
        sys.rate_jacobian = lambda rho: np.full((sys.n_trans, sys.n_state), np.nan)
        with pytest.raises(FloatingPointError):
            solve_moments(sys, np.full(2, 10.0), np.zeros((2, 2)),
                          np.linspace(0.0, 0.01, 11))


class TestExactSteps:
    """From a fixed point on a uniform grid the cumulative moments take
    exact time-invariant steps; a grid that is not uniform forces RK4."""

    @pytest.fixture(autouse=True)
    def exact_steps(self, monkeypatch):
        """Interval lengths passed to the exact step, per solve."""
        calls = []

        def spy(A, N, h):
            calls.append(h)
            return exact_step(A, N, h)
        exact_step = gaussian._exact_step
        monkeypatch.setattr(gaussian, "_exact_step", spy)
        return calls

    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("spec", [
        SegmentSpec.uniform(3, 0.5, F, 1400.0, 1200.0),
        SegmentSpec.uniform(3, 0.5, TC, (1000.0, 250.0), (900.0, 100.0)),
    ], ids=["daganzo", "two-class"])
    def test_match_rk4_from_fixed_points(self, spec, projected, exact_steps):
        # the covariances of all of Y, or of the travel-time rows and a
        # dense row (`weights`), against RK4 on a grid that is not uniform;
        # each exact P C P' is symmetric PSD
        sys = spec.system()
        rows = [_weights(sys, 1, 2, j)[1] for j in range(1, sys.m + 1)]
        rows.append(np.random.default_rng(3).standard_normal(sys.n_trans))
        kw = dict(step=1e-4, weights=rows if projected else None)
        fp = stationary_fixed_point(spec)
        grid = np.linspace(0.0, 0.05, 26)
        exact = solve_cumulative_moments(spec, fp.mu, grid, **kw)
        assert exact_steps == [pytest.approx(0.002, rel=1e-12)]
        rk4_grid = np.insert(grid, 1, 0.001)  # not uniform
        rk4 = solve_cumulative_moments(spec, fp.mu, rk4_grid, **kw)
        assert len(exact_steps) == 1
        keep = np.delete(np.arange(len(rk4_grid)), 1)
        np.testing.assert_allclose(exact.y_mean, rk4.y_mean[keep], rtol=1e-7)
        p = len(rows) if projected else sys.n_trans
        assert exact.cov.shape == (len(grid), p, p)
        np.testing.assert_allclose(exact.cov, rk4.cov[keep], rtol=1e-7,
                                   atol=1e-7 * np.abs(rk4.cov).max())
        for C in exact.cov:
            assert_symmetric_psd(C)

    def test_long_interval(self, exact_steps):
        # one 0.25 h step: W comes from 2^k doublings of a short Van Loan
        # step (the block exponential over 0.25 h gave trace W = 5.4e6)
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        exact = solve_cumulative_moments(spec, np.full(3, 10.0), [0.0, 0.25])
        rk4 = solve_cumulative_moments(spec, np.full(3, 10.0), [0.0, 0.1, 0.25],
                                       step=1e-4)
        assert exact_steps == [0.25]
        np.testing.assert_allclose(exact.cov[-1], rk4.cov[-1], rtol=1e-7,
                                   atol=1e-7 * np.abs(rk4.cov[-1]).max())
        # the arrivals are a Poisson stream of rate lam: Var Y_0 = lam t
        np.testing.assert_allclose(exact.cov[-1][0, 0], 200.0, rtol=1e-9)
        assert np.trace(exact.cov[-1]) < 1e3

    @pytest.mark.parametrize("path", ["exact", "rk4"])
    @pytest.mark.parametrize("alone", [True, False])
    @pytest.mark.parametrize("spec", [
        SegmentSpec.uniform(3, 0.5, F, 1400.0, 1200.0),
        SegmentSpec.uniform(3, 0.5, TC, (1000.0, 250.0), (900.0, 100.0)),
    ], ids=["daganzo", "two-class"])
    def test_projected_variances_match_the_covariances(self, spec, alone,
                                                       path, exact_steps):
        # P C P' for the travel-time rows of every class and a dense row;
        # `alone` also solves each row by itself, which gives the same
        # variances bit for bit: a row's variance does not depend on its
        # neighbours
        sys = spec.system()
        rows = [_weights(sys, 1, 2, j)[1] for j in range(1, sys.m + 1)]
        rows.append(np.random.default_rng(5).standard_normal(sys.n_trans))
        fp = stationary_fixed_point(spec)
        grid = np.linspace(0.0, 0.2, 201)
        if path == "rk4":
            grid = np.insert(grid, 1, 0.0005)  # not uniform
        full = solve_cumulative_moments(spec, fp.mu, grid)
        proj = solve_cumulative_moments(spec, fp.mu, grid, weights=rows)
        # only the covariance of the rows is stored
        assert proj.cov.shape == (len(grid), len(rows), len(rows))
        np.testing.assert_array_equal(proj.y_mean, full.y_mean)
        P = np.array(rows)
        want = P @ full.cov @ P.T
        np.testing.assert_allclose(proj.cov, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        if alone:
            for c, w in enumerate(rows):
                one = solve_cumulative_moments(spec, fp.mu, grid, weights=[w])
                np.testing.assert_array_equal(one.cov[:, 0, 0], proj.cov[:, c, c])
        solves = 2 + alone * len(rows)
        assert len(exact_steps) == (solves if path == "exact" else 0)

    def test_weights_must_have_shape(self):
        spec = SegmentSpec.uniform(2, 1.0, F, 800.0, 1800.0)
        for bad in (np.ones(3), np.ones((1, 5))):
            with pytest.raises(ValueError, match="shape"):
                solve_cumulative_moments(spec, np.full(2, 10.0), [0.0, 0.1],
                                         weights=bad)

    def test_indefinite_noise_integral_is_named(self, monkeypatch, exact_steps):
        # one negative eigenvalue in W: the exact path checks W once, and,
        # were that check passed, each projected variance itself, with
        # weights or without (all of Y)
        def indefinite(A, N, h):
            E, W = exact_step(A, N, h)
            return E, W - 10.0 * np.trace(W) * np.eye(len(W))
        exact_step = gaussian._exact_step
        monkeypatch.setattr(gaussian, "_exact_step", indefinite)
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        solves = [lambda weights=weights: solve_cumulative_moments(
            spec, np.full(3, 10.0), [0.0, 0.01, 0.02], weights=weights)
                  for weights in (np.eye(4)[[0]], None)]
        for solve in solves:
            with pytest.raises(FloatingPointError, match="noise integral"):
                solve()
        monkeypatch.setattr(gaussian, "_psd", lambda C: True)
        for solve in solves:
            with pytest.raises(FloatingPointError, match="projected variance"):
                solve()

    def test_a_start_off_rest_takes_rk4(self, exact_steps):
        spec = SegmentSpec.uniform(3, 1.0, F, 800.0, 1800.0)
        solve_cumulative_moments(spec, np.full(3, 10.5), [0.0, 0.01, 0.02])
        assert exact_steps == []
