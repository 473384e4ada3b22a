from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussctm.cli import example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams
from gaussctm.model import SegmentSpec
from gaussctm.simulator import (
    SimConfig,
    SimulationError,
    ensemble_moments,
    estimate_throughput,
    simulate,
)

F = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))


def seg(d=1, ell=1.0, lam=800.0, nu=1800.0):
    return SegmentSpec.uniform(d, ell, F, lam, nu)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, replications=0)


class TestSimulate:
    def test_closed_empty_system_absorbs(self):
        spec = seg(lam=0.0, nu=0.0)
        traj = simulate(spec, [0], SimConfig(horizon=1.0))
        assert traj.absorbed
        assert traj.n_events == 0
        assert np.all(traj.counts == 0)

    def test_initial_count_validation(self):
        spec = seg()
        with pytest.raises(ValueError):
            simulate(spec, [0, 0], SimConfig(horizon=1.0))
        with pytest.raises(ValueError):
            simulate(spec, [2.5], SimConfig(horizon=1.0))
        with pytest.raises(ValueError):
            simulate(spec, [500], SimConfig(horizon=1.0))

    def test_reproducible_with_same_seed(self):
        spec = seg(d=3)
        cfg = SimConfig(horizon=0.2, seed=42)
        t1 = simulate(spec, [10, 10, 10], cfg)
        t2 = simulate(spec, [10, 10, 10], cfg)
        np.testing.assert_array_equal(t1.times, t2.times)
        np.testing.assert_array_equal(t1.counts, t2.counts)
        np.testing.assert_array_equal(t1.trans, t2.trans)

    def test_counts_follow_transitions(self):
        spec = seg(d=3)
        traj = simulate(spec, [10, 10, 10], SimConfig(horizon=0.1, seed=1))
        sys = traj.system
        for k, tr in enumerate(traj.trans):
            step = traj.counts[k + 1] - traj.counts[k]
            np.testing.assert_array_equal(step, sys.H[:, tr])

    def test_event_rate_stationary_single_cell(self):
        # in equilibrium at rho=10 every boundary flows at 800 veh/h, so
        # the mean number of events per hour is 2 * 800
        spec = seg(d=1, lam=800.0, nu=1800.0)
        cfg = SimConfig(horizon=1.0, seed=0)
        rng_events = []
        streams = np.random.SeedSequence(0).spawn(200)
        for s in streams:
            traj = simulate(spec, [10], cfg, rng=np.random.default_rng(s))
            rng_events.append(traj.n_events)
        mean = np.mean(rng_events)
        se = np.std(rng_events, ddof=1) / np.sqrt(len(rng_events))
        assert abs(mean - 1600.0) < 3 * se + 1e-9

    def test_state_at_and_density_at(self):
        spec = seg(d=2, ell=0.5)
        traj = simulate(spec, [5, 5], SimConfig(horizon=0.1, seed=3))
        np.testing.assert_array_equal(traj.state_at(0.0), [5, 5])
        np.testing.assert_allclose(traj.density_at(0.0), [10.0, 10.0])
        with pytest.raises(ValueError):
            traj.state_at(0.2)

    def test_cumulative_counts_sum_to_events(self):
        spec = seg(d=3)
        traj = simulate(spec, [10, 10, 10], SimConfig(horizon=0.1, seed=5))
        Y = traj.cumulative_counts()
        assert Y[-1].sum() == traj.n_events
        assert np.all(np.diff(Y, axis=0) >= 0)

    def test_fractional_jam_count_holds(self):
        # rho_max l = 20.25: the supply at 20 vehicles is positive, so the
        # count reaches x_jam = 21 and stops there (an x_jam of 20 made
        # that arrival raise SimulationError)
        sys = seg(d=1, ell=0.1875, lam=12.0, nu=2.0).system()
        traj = simulate(sys, [20], SimConfig(horizon=2.0, seed=0))
        assert traj.counts.max() == sys.x_jam[0] == 21

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5),
           st.one_of(st.integers(5, 162).map(lambda x: x / 108.0),
                     st.floats(5 / 108.0, 1.5)),
           st.floats(0.0, 3000.0), st.floats(0.0, 3000.0),
           st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_recorded_rates_match_array_rates(self, d, ell, lam, nu, fill, seed):
        # the loop's scalar link rates are the kernel's, bit for bit; cells
        # hold a whole or a fractional rho_max l vehicles at jam density
        sys = seg(d=d, ell=ell, lam=lam, nu=nu).system()
        x0 = np.rint(np.array(fill[:d]) * sys.x_jam).astype(int)
        traj = simulate(sys, x0, SimConfig(horizon=0.05, seed=seed))
        assert np.all(traj.counts >= 0) and np.all(traj.counts <= sys.x_jam)
        np.testing.assert_array_equal(traj.counts[0], x0)
        inv = 1 / sys.state_lengths  # a full cell holds at least rho_jam
        full = np.maximum(sys.x_jam * inv, sys.rho_jam)
        for k, counts in enumerate(traj.counts):
            q = sys.rates(np.where(counts == sys.x_jam, full, counts * inv))
            assert traj.arrival_rate[k] == q[sys.src < 0].sum()
            assert traj.departure_rate[k] == q[sys.dst < 0].sum()
            if k < traj.n_events:
                assert q[traj.trans[k]] > 0.0

    def test_full_cell_receives_nothing(self):
        # on 77 of these lengths, k = 15 the first, x_jam * (1 / l) rounds
        # just below rho_max, where the receiving rate is 2.3e-13 veh/h
        for k in range(1, 400):
            sys = seg(d=1, ell=k / 108.0, lam=1800.0, nu=0.0).system()
            traj = simulate(sys, sys.x_jam, SimConfig(horizon=1.0))
            assert traj.arrival_rate[0] == 0.0, k
            assert traj.absorbed is True, k

    @pytest.mark.parametrize("start,rates", [(0, (0.0, 1000.0)),
                                             (108, (1000.0, 0.0))])
    def test_inconsistent_rates_raise(self, start, rates):
        # a kernel whose rates ignore the counts: the only possible first
        # event empties an empty cell or fills a jammed one
        sys = seg(d=1).system()
        sys.kernel = SimpleNamespace(rates=lambda rho: np.array(rates))
        with pytest.raises(SimulationError,
                           match="below 0" if start == 0 else "above jam"):
            simulate(sys, [start], SimConfig(horizon=1.0, seed=0))

    def test_array_rates_once_per_event(self):
        f = {r: F for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
        sys = example_network(1, 1.0, f, 0.5, 0.5, 0.5, 0.5, 800.0, 1800.0).system()
        calls = []
        rates = sys.rates
        sys.rates = lambda rho: (calls.append(1), rates(rho))[1]
        traj = simulate(sys, np.zeros(sys.n_state, dtype=int),
                        SimConfig(horizon=0.2, seed=3))
        assert traj.n_events > 100
        assert len(calls) == traj.n_events + 1


class TestThroughput:
    def test_zero_arrivals(self):
        spec = seg(lam=0.0)
        traj = simulate(spec, [10], SimConfig(horizon=1.0, seed=0))
        assert estimate_throughput(traj, 0.0, 1.0) == 0.0

    def test_light_traffic_matches_lambda(self):
        spec = seg(d=2, lam=500.0, nu=1800.0)
        vals = []
        for s in np.random.SeedSequence(1).spawn(20):
            traj = simulate(spec, [6, 6], SimConfig(horizon=4.0),
                            rng=np.random.default_rng(s))
            vals.append(estimate_throughput(traj, 1.0, 4.0))
        assert abs(np.mean(vals) - 500.0) < 0.05 * 500.0

    def test_window_validation(self):
        spec = seg()
        traj = simulate(spec, [10], SimConfig(horizon=1.0, seed=0))
        with pytest.raises(ValueError):
            estimate_throughput(traj, 0.5, 0.5)
        with pytest.raises(ValueError):
            estimate_throughput(traj, 0.0, 2.0)


class TestEnsemble:
    def test_needs_two_replications(self):
        spec = seg()
        with pytest.raises(ValueError):
            ensemble_moments(spec, [10], SimConfig(horizon=1.0), [0.5])

    def test_sample_times_inside_horizon(self):
        spec = seg()
        with pytest.raises(ValueError):
            ensemble_moments(spec, [10], SimConfig(horizon=1.0, replications=4),
                             [1.5])

    def test_free_flow_mean_density(self):
        spec = seg(d=5, lam=800.0)
        cfg = SimConfig(horizon=1.0, seed=7, replications=60)
        em = ensemble_moments(spec, [10] * 5, cfg, [0.5, 1.0])
        # stationary mean density is lambda / v_f = 10 in every cell
        for k in range(2):
            z = (em.mean[k] - 10.0) / em.mean_se[k]
            assert np.all(np.abs(z) < 4.0)
        assert em.cov.shape == (2, 5, 5)


class TestNetworkSimulation:
    def test_diverge_split_fractions(self):
        f = {r: F for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
        net = example_network(2, 1.0, f, 0.25, 0.75, 0.75, 0.5, 800.0, 1800.0)
        sys = net.system()
        k2 = sys.labels.index("r1->r2")
        k4 = sys.labels.index("r1->r4")
        n2 = n4 = 0
        for s in np.random.SeedSequence(17).spawn(10):
            traj = simulate(sys, np.zeros(sys.n_state, dtype=int),
                            SimConfig(horizon=1.0),
                            rng=np.random.default_rng(s))
            n2 += int(np.sum(traj.trans == k2))
            n4 += int(np.sum(traj.trans == k4))
        total = n2 + n4
        assert total > 1000
        frac = n2 / total
        se = np.sqrt(0.25 * 0.75 / total)
        assert abs(frac - 0.25) < 4 * se
