import numpy as np
import pytest
from scipy.special import ndtr

from gaussctm.cli import route_travel_time
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.gaussian import solve_cumulative_moments
from gaussctm.model import SegmentSpec
from gaussctm.simulator import simulate
from gaussctm.traveltime import (
    GridCoverageError,
    TailCurve,
    default_grid,
    travel_time_moments,
    travel_time_tail,
)

F = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))


class TestMoments:
    def test_step_tail_recovers_deterministic_time(self):
        grid = np.linspace(0.0, 400.0, 401)
        vals = (grid < 120.0).astype(float)
        curve = TailCurve(1, 0, 1, 0.0, grid, vals)
        mean, sd = travel_time_moments(curve)
        assert abs(mean - 120.0) < 1.0
        assert sd < 5.0

    def test_short_grid_raises(self):
        grid = np.linspace(0.0, 50.0, 51)
        curve = TailCurve(1, 0, 1, 0.0, grid, np.full(51, 0.9))
        with pytest.raises(GridCoverageError):
            travel_time_moments(curve)

    def test_zero_mass_curve(self):
        grid = np.linspace(0.0, 50.0, 51)
        curve = TailCurve(1, 0, 1, 0.0, grid, np.zeros(51))
        assert travel_time_moments(curve) == (0.0, 0.0)


class TestTail:
    def spec(self, d=3, ell=1.0, lam=800.0, nu=1800.0):
        return SegmentSpec.uniform(d, ell, F, lam, nu)

    def test_values_are_a_proper_tail(self):
        spec = self.spec()
        curve = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                 t=0.0, grid=default_grid(700.0, 301))
        assert np.all(np.diff(curve.values) <= 0)
        assert np.all((curve.values >= 0) & (curve.values <= 1))
        assert curve.values[0] > 0.99  # leaving 3 km takes a while

    def test_class_sequence_shares_one_solve(self):
        tc = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2,
                                         L1=0.0065, L2=0.0165, N=3, beta=0.25))
        spec = SegmentSpec.uniform(3, 0.5, tc, (900.0, 300.0), (2000.0, 600.0))
        rho = np.tile([8.0, 3.0], 3)
        grid = default_grid(300.0, 101)
        both = travel_time_tail(spec, rho, i=1, k=2, j=(1, 2), t=0.0, grid=grid)
        for j, curve in zip((1, 2), both):
            one = travel_time_tail(spec, rho, i=1, k=2, j=j, t=0.0, grid=grid)
            assert curve.j == j
            np.testing.assert_array_equal(curve.values, one.values)

    def test_curve_matches_the_per_point_reference(self):
        # one grid point at a time from the full covariance of Y, plus the
        # variance of the initial counts ahead (0.5 km cells: counts are
        # half the densities); the sums run in another order, so 1e-12
        # relative
        spec = self.spec(ell=0.5, lam=1400.0, nu=1200.0)
        rho = np.array([20.0, 40.0, 60.0])
        grid = default_grid(600.0, 201)
        cum = solve_cumulative_moments(spec, rho, grid / 3600.0)
        curve = travel_time_tail(spec, rho, i=1, k=2, j=1, t=0.0, grid=grid,
                                 x0_cov=np.diag(rho / 2.0))
        w_y = np.array([0.0, 0.0, 0.0, 1.0])
        ahead, ahead_var = 0.5 * rho.sum(), 0.25 * (rho / 2.0).sum()
        ref = np.empty(len(grid))
        for g in range(len(grid)):
            mean = float(w_y @ cum.y_mean[g]) - ahead
            var = float(w_y @ cum.cov[g] @ w_y) + ahead_var
            ref[g] = (1.0 if mean < 0 else 0.0) if var <= 1e-18 else ndtr(-mean / np.sqrt(var))
        ref = np.minimum.accumulate(np.clip(ref, 0.0, 1.0))
        assert 0.0 < ref[-1] < ref[0] == 1.0
        np.testing.assert_allclose(curve.values, ref, rtol=1e-12, atol=0)

    def test_initial_covariance_adds_a_constant_variance(self):
        # per class j, the tail with x0_cov is the tail of the variance
        # without it plus w_x'(l Sigma l)w_x, w_x the -1 mask of class j
        # over cells 2..3 and l the cell length; Sigma couples cells and
        # classes
        tc = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2,
                                         L1=0.0065, L2=0.0165, N=3, beta=0.25))
        spec = SegmentSpec.uniform(4, 0.5, tc, (900.0, 300.0), (2000.0, 600.0))
        rho = np.tile([8.0, 3.0], 4)
        root = np.random.default_rng(7).standard_normal((8, 8))
        sigma = root @ root.T
        grid = default_grid(300.0, 101)
        curves = travel_time_tail(spec, rho, i=2, k=1, j=(1, 2), t=0.0,
                                  grid=grid, x0_cov=sigma)
        sys = spec.system()
        for j, curve in zip((1, 2), curves):
            w_y = np.zeros(sys.n_trans)
            w_y[3 * 2 + j - 1] = 1.0  # the outflow of cell 3, class j
            cum = solve_cumulative_moments(sys, rho, grid / 3600.0,
                                           weights=[w_y])
            w_x = np.zeros(8)
            w_x[[2 + j - 1, 4 + j - 1]] = -1.0
            mean = cum.y_mean @ w_y + w_x @ (0.5 * rho)
            var = cum.cov[:, 0, 0] + 0.25 * (w_x @ sigma @ w_x)
            ref = np.minimum.accumulate(ndtr(-mean / np.sqrt(var)))
            assert curve.j == j and 0.0 < ref[-1] < ref[0]
            np.testing.assert_allclose(curve.values, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [0.0, 0.01])
    def test_bad_initial_covariance_raises(self, t):
        spec = self.spec()
        grid = default_grid(400.0, 41)
        bad = (np.eye(2),                        # shape
               np.diag([1.0, -1.0, 1.0]),        # indefinite
               np.triu(np.ones((3, 3))),         # not symmetric
               np.diag([1.0, np.nan, 1.0]))      # not finite
        for x0_cov, match in zip(bad, ("shape \\(3, 3\\)", "semidefinite",
                                       "semidefinite", "semidefinite")):
            with pytest.raises(ValueError, match=match):
                travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                 t=t, grid=grid, x0_cov=x0_cov)

    def test_free_flow_mean(self):
        spec = self.spec()
        curve = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                 t=0.0, grid=default_grid(700.0, 701))
        mean, sd = travel_time_moments(curve)
        # 3 km at 80 km/h = 135 s
        assert abs(mean - 135.0) < 7.0
        assert 0.0 < sd < 60.0

    def test_later_entry_keeps_mean_but_adds_spread(self):
        # entering at t > 0, the queue ahead has accumulated stochastic
        # fluctuation around the (stationary) fluid path: same mean
        # travel time, strictly wider distribution
        spec = self.spec()
        grid = default_grid(700.0, 701)
        c0 = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                              t=0.0, grid=grid)
        c1 = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                              t=0.05, grid=grid)
        m0, s0 = travel_time_moments(c0)
        m1, s1 = travel_time_moments(c1)
        assert abs(m0 - m1) < 3.0
        assert s1 > s0

    def test_grid_refinement_converges(self):
        spec = self.spec()
        means = []
        for n in (501, 1001):
            curve = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                     t=0.0, grid=default_grid(700.0, n))
            means.append(travel_time_moments(curve)[0])
        assert abs(means[0] - means[1]) / means[1] < 1e-3

    def test_argument_validation(self):
        spec = self.spec()
        grid = default_grid(400.0, 41)
        with pytest.raises(ValueError):
            travel_time_tail(spec, np.full(3, 10.0), i=2, k=2, j=1,
                             t=0.0, grid=grid)
        with pytest.raises(ValueError):
            travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=2,
                             t=0.0, grid=grid)
        with pytest.raises(ValueError):
            travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                             t=0.0, grid=grid[::-1])
        # a NaN point passed both checks and failed inside the solver
        for bad in (np.nan, np.inf):
            for at in (0, 5, -1):
                g = grid.copy()
                g[at] = bad
                with pytest.raises(ValueError, match="grid must be finite"):
                    travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                     t=0.0, grid=g)

    def test_entry_time_must_be_nonnegative(self):
        # a NaN time passed t < 0 and was solved as t = 0
        for t in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="entry time"):
                travel_time_tail(self.spec(), np.full(3, 10.0), i=1, k=2, j=1,
                                 t=t, grid=default_grid(400.0, 41))

    def test_initial_uncertainty_widens_the_distribution(self):
        spec = self.spec()
        grid = default_grid(700.0, 701)
        base = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                t=0.0, grid=grid)
        wide = travel_time_tail(spec, np.full(3, 10.0), i=1, k=2, j=1,
                                t=0.0, grid=grid,
                                x0_cov=np.diag(np.full(3, 5.0)))
        _, sd0 = travel_time_moments(base)
        _, sd1 = travel_time_moments(wide)
        assert sd1 > sd0


class TestAgainstSimulation:
    def test_tail_matches_first_passage_times(self):
        # 3 cells of 2 km starting at exactly 20 vehicles per cell; the
        # travel time of a vehicle entering at t=0 is the first-passage
        # time of the cumulative departure count to 60
        spec = SegmentSpec.uniform(3, 2.0, F, 800.0, 1800.0)
        sys = spec.system()
        grid = default_grid(700.0, 281)
        curve = travel_time_tail(sys, np.full(3, 10.0), i=1, k=2, j=1,
                                 t=0.0, grid=grid)
        n_ahead = 60
        dep = sys.n_trans - 1
        passages = []
        for s in np.random.SeedSequence(2024).spawn(3000):
            traj = simulate(sys, [20, 20, 20], 0.25, s)
            k = np.flatnonzero(traj.trans == dep)
            assert len(k) >= n_ahead
            passages.append(traj.times[k[n_ahead - 1] + 1] * 3600.0)
        passages = np.sort(passages)
        empirical = 1.0 - np.searchsorted(passages, grid, side="right") / len(passages)
        sup = np.max(np.abs(empirical - curve.values))
        assert sup < 0.05


class TestRouteTravelTime:
    def test_slower_route_takes_longer(self):
        f90 = DaganzoFlux(DaganzoParams(v_f=90.0, w=16.0, rho_max=108.0,
                                        q_max=1500.0))
        f80 = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0,
                                        q_max=1500.0))
        mu1, _ = route_travel_time(3, 1.0, f90, 1400.0, 1500.0, 2.0,
                                   400.0, 401, 1e-3)
        mu2, _ = route_travel_time(3, 1.0, f80, 1400.0, 1500.0, 5.0,
                                   400.0, 401, 1e-3)
        assert abs(mu1 - 3600.0 * 3.0 / 90.0) < 5.0
        assert mu2 > mu1

    def test_moderate_demand_reference_values(self):
        flux = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0,
                                         q_max=1500.0))
        mu, sd = route_travel_time(3, 1.0, flux, 1400.0, 1500.0, 5.0,
                                   400.0, 1001, 1e-3)
        assert abs(mu - 135.86) / 135.86 < 0.05
        assert abs(sd - 13.87) / 13.87 < 0.05

    def test_high_demand_reference_values(self):
        flux = DaganzoFlux(DaganzoParams(v_f=110.0, w=20.0, rho_max=108.0,
                                         q_max=1800.0))
        mu, sd = route_travel_time(3, 1.0, flux, 1700.0, 1800.0, 5.0,
                                   400.0, 1001, 1e-3)
        assert abs(mu - 98.93) / 98.93 < 0.05
        assert abs(sd - 10.56) / 10.56 < 0.05
