from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussctm.cli import example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.gaussian import solve_moments
from gaussctm.model import SegmentSpec
from gaussctm.simulator import (
    SimulationError,
    ensemble_moments,
    estimate_throughput,
    simulate,
)

F = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))
TC = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065,
                                 L2=0.0165, N=3, beta=0.25))


def seg(d=1, ell=1.0, lam=800.0, nu=1800.0):
    return SegmentSpec.uniform(d, ell, F, lam, nu)


class TestSimulate:
    def test_horizon_must_be_positive(self):
        # the chain of a segment with arrivals never absorbs: a NaN or an
        # infinite horizon, which no event time reaches, would have let it
        # append events until memory ran out
        for horizon in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="horizon"):
                simulate(seg(), [10], horizon)
            with pytest.raises(ValueError, match="horizon"):
                ensemble_moments(seg(), [10], horizon, [0.0], 2)
        # a NaN horizon is named before the sample times it bounds
        with pytest.raises(ValueError, match="horizon must be positive"):
            ensemble_moments(seg(), [10], np.nan, [0.5], 2)

    def test_seed_forms_give_one_stream(self):
        # an int, the SeedSequence of that int and a generator made from
        # that SeedSequence give the same variates
        spec = seg(d=3)
        ss = np.random.SeedSequence(42)
        runs = [simulate(spec, [10, 10, 10], 0.2, seed)
                for seed in (42, ss, np.random.default_rng(ss))]
        assert runs[0].n_events > 100
        for traj in runs[1:]:
            assert np.array_equal(traj.times, runs[0].times)
            assert np.array_equal(traj.trans, runs[0].trans)

    def test_closed_empty_system_absorbs(self):
        spec = seg(lam=0.0, nu=0.0)
        traj = simulate(spec, [0], 1.0)
        assert traj.absorbed
        assert traj.n_events == 0
        assert np.all(traj.counts == 0)

    def test_initial_count_validation(self):
        spec = seg()
        with pytest.raises(ValueError):
            simulate(spec, [0, 0], 1.0)
        with pytest.raises(ValueError):
            simulate(spec, [2.5], 1.0)
        with pytest.raises(ValueError):
            simulate(spec, [500], 1.0)

    def test_reproducible_with_same_seed(self):
        spec = seg(d=3)
        t1 = simulate(spec, [10, 10, 10], 0.2, 42)
        t2 = simulate(spec, [10, 10, 10], 0.2, 42)
        np.testing.assert_array_equal(t1.times, t2.times)
        np.testing.assert_array_equal(t1.counts, t2.counts)
        np.testing.assert_array_equal(t1.trans, t2.trans)

    def test_counts_follow_transitions(self):
        spec = seg(d=3)
        traj = simulate(spec, [10, 10, 10], 0.1, 1)
        sys = traj.system
        for k, tr in enumerate(traj.trans):
            step = traj.counts[k + 1] - traj.counts[k]
            np.testing.assert_array_equal(step, sys.H[:, tr])

    def test_event_rate_stationary_single_cell(self):
        # in equilibrium at rho=10 every boundary flows at 800 veh/h, so
        # the mean number of events per hour is 2 * 800
        spec = seg(d=1, lam=800.0, nu=1800.0)
        rng_events = []
        streams = np.random.SeedSequence(0).spawn(200)
        for s in streams:
            traj = simulate(spec, [10], 1.0, s)
            rng_events.append(traj.n_events)
        mean = np.mean(rng_events)
        se = np.std(rng_events, ddof=1) / np.sqrt(len(rng_events))
        assert abs(mean - 1600.0) < 3 * se + 1e-9

    def test_state_at_and_density_at(self):
        spec = seg(d=2, ell=0.5)
        traj = simulate(spec, [5, 5], 0.1, 3)
        np.testing.assert_array_equal(traj.state_at(0.0), [5, 5])
        np.testing.assert_allclose(traj.density_at(0.0), [10.0, 10.0])
        # a NaN time passed both bounds and read the last state
        for t in (0.2, -0.1, np.nan):
            with pytest.raises(ValueError, match="horizon"):
                traj.state_at(t)
            with pytest.raises(ValueError, match="horizon"):
                traj.density_at(t)

    def test_cumulative_counts_sum_to_events(self):
        spec = seg(d=3)
        traj = simulate(spec, [10, 10, 10], 0.1, 5)
        Y = traj.cumulative_counts()
        assert Y[-1].sum() == traj.n_events
        assert np.all(np.diff(Y, axis=0) >= 0)

    def test_fractional_jam_count_holds(self):
        # rho_max l = 20.25: the supply at 20 vehicles is positive, so the
        # count reaches x_jam = 21 and stops there (an x_jam of 20 made
        # that arrival raise SimulationError)
        sys = seg(d=1, ell=0.1875, lam=12.0, nu=2.0).system()
        traj = simulate(sys, [20], 2.0, 0)
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
        traj = simulate(sys, x0, 0.05, seed)
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

    @pytest.mark.parametrize("d,ell,lam,nu,fill", [
        (5, 11 / 108, 1400.0, 1200.0, 0.0),
        (3, 12.5 / 108, 1800.0, 600.0, 0.5),  # rho_max l = 12.5
        (2, 0.1875, 1800.0, 300.0, 0.5),  # rho_max l = 20.25
        (5, 11 / 108, 1800.0, 600.0, 0.95),  # 10 of 11 vehicles per cell
    ])
    def test_segment_path_equals_whole_array_path(self, d, ell, lam, nu, fill):
        # a kernel that only has `rates` forces one whole-array call per
        # event; the segment loop's count-indexed tables give the same
        # rates, so the same events, bit for bit
        sys = seg(d=d, ell=ell, lam=lam, nu=nu).system()
        x0 = np.floor(fill * sys.x_jam).astype(int)
        table = simulate(sys, x0, 0.2, 11)
        sys.kernel = SimpleNamespace(rates=sys.kernel.rates)
        array = simulate(sys, x0, 0.2, 11)
        assert table.n_events > 100
        for name in ("times", "trans", "arrival_rate", "departure_rate"):
            assert np.array_equal(getattr(table, name), getattr(array, name)), name

    def test_derived_rates_on_whole_array_path(self):
        # a two-class segment started near its jam occupancy: the derived
        # boundary rates are the sums of `rates` at each visited state,
        # with an arrival that would fill its cell past occupancy N at 0
        ell, N, L = 0.5, TC.params.N, TC.lengths
        sys = SegmentSpec.uniform(2, ell, TC, (2400.0, 800.0), (300.0, 100.0)).system()
        x0 = np.floor(0.49 * sys.rho_jam * sys.state_lengths).astype(int)
        traj = simulate(sys, x0, 0.3, 5)
        assert traj.n_events > 100
        into = sys.dst >= 0
        cell, cls = sys.dst[into] // sys.m, sys.dst[into] % sys.m
        inv, masked = 1 / sys.state_lengths, 0
        for k, counts in enumerate(traj.counts):
            q = sys.rates(counts * inv)
            after = (counts.reshape(-1, sys.m)[cell] @ L + L[cls]) / ell
            full = np.zeros(sys.n_trans, dtype=bool)
            full[into] = after > N * (1 + 1e-9)
            masked += np.count_nonzero(full & (q > 0.0))
            q[full] = 0.0
            assert traj.arrival_rate[k] == q[sys.src < 0].sum()
            assert traj.departure_rate[k] == q[sys.dst < 0].sum()
            if k < traj.n_events:
                assert q[traj.trans[k]] > 0.0
        assert masked > 0, masked

    def test_full_cell_receives_nothing(self):
        # on 77 of these lengths, k = 15 the first, x_jam * (1 / l) rounds
        # just below rho_max, where the receiving rate is 2.3e-13 veh/h
        for k in range(1, 400):
            sys = seg(d=1, ell=k / 108.0, lam=1800.0, nu=0.0).system()
            traj = simulate(sys, sys.x_jam, 1.0)
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
            simulate(sys, [start], 1.0, 0)

    def test_array_rates_once_per_event(self):
        f = {r: F for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
        sys = example_network(1, 1.0, f, 0.5, 0.5, 0.5, 0.5, 800.0, 1800.0).system()
        calls = []
        rates = sys.rates
        sys.rates = lambda rho: (calls.append(1), rates(rho))[1]
        traj = simulate(sys, np.zeros(sys.n_state, dtype=int), 0.2, 3)
        assert traj.n_events > 100
        assert len(calls) == traj.n_events + 1


@st.composite
def systems_and_counts(draw):
    """A Daganzo segment, a two-class segment or the example network, and
    whole counts inside its domain, often near full so that the chain
    meets its jam occupancy within a short run."""
    rate = st.floats(0.0, 3000.0)
    d, ell = draw(st.integers(1, 3)), draw(st.floats(0.05, 1.0))
    kind = draw(st.sampled_from(["daganzo", "two-class", "network"]))
    if kind == "network":
        splits = [draw(st.floats(0.05, 0.95)) for _ in range(4)]
        f = {r: F for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
        sys = example_network(d, ell, f, *splits, draw(rate), draw(rate)).system()
    elif kind == "daganzo":
        sys = seg(d, ell, draw(rate), draw(rate)).system()
    else:
        sys = SegmentSpec.uniform(d, ell, TC, (draw(rate), draw(rate)),
                                  (draw(rate), draw(rate))).system()
    # per cell, a fill in [0, 1] of the jam occupancy shared over the classes
    fill = st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]) | st.floats(0.0, 1.0)
    fill = draw(st.lists(fill, min_size=sys.n_cells, max_size=sys.n_cells))
    share = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=sys.n_state,
                                   max_size=sys.n_state))).reshape(-1, sys.m)
    share = share / np.maximum(share.sum(axis=1, keepdims=True), 1e-300)
    jam = sys.rho_jam * sys.state_lengths
    x0 = np.floor(np.repeat(fill, sys.m) * share.ravel() * jam).astype(int)
    return sys, x0


class TestDomain:
    @settings(max_examples=60, deadline=None)
    @given(systems_and_counts(), st.floats(0.01, 0.1), st.integers(0, 2**32 - 1))
    def test_every_reached_state_is_in_the_domain(self, case, horizon, seed):
        sys, x0 = case
        traj = simulate(sys, x0, horizon, seed)
        for counts in traj.counts:
            rho = counts / sys.state_lengths
            if sys.m == 1:
                # a full cell holds x_jam = ceil(rho_jam l) vehicles (see
                # test_fractional_jam_count_holds): it stands for rho_jam
                rho = np.where(counts == sys.x_jam, sys.rho_jam, rho)
            sys.check_domain(rho)
        # the fullest state reached, and the last, restart the chain
        fill = ((traj.counts / (sys.rho_jam * sys.state_lengths))
                .reshape(len(traj.counts), -1, sys.m).sum(axis=2).max(axis=1))
        for counts in (traj.counts[np.argmax(fill)], traj.counts[-1]):
            simulate(sys, counts, 0.01, seed)

    @pytest.mark.parametrize("start,ok", [([230, 0], True), ([231, 0], False),
                                          ([0, 90], True), ([0, 91], False)])
    def test_two_class_start_is_bounded_by_occupancy(self, start, ok):
        # on 0.5 km, N / L_j l = 230.8 cars or 90.9 trucks: each class's
        # x_jam rounds up to 231 or 91, occupancy 3.003 or 3.003 > N = 3
        sys = SegmentSpec.uniform(1, 0.5, TC, (3000.0, 1000.0), (0.0, 0.0)).system()
        assert sys.x_jam.tolist() == [231, 91]
        if ok:
            simulate(sys, start, 0.01)
        else:
            with pytest.raises(ValueError, match="jam occupancy"):
                simulate(sys, start, 0.01)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_class_cell_fills_to_its_lane_count_and_stops(self, seed):
        # arrivals into one closed cell: the supply stays positive up to
        # occupancy N = 3, so the chain absorbs only once one more car
        # would pass N: within a car's occupancy L1 / l of N, not above it
        sys = SegmentSpec.uniform(1, 0.5, TC, (3000.0, 1000.0), (0.0, 0.0)).system()
        traj = simulate(sys, [0, 0], 2.0, seed)
        occupancy = traj.counts[-1] @ TC.lengths / 0.5
        assert traj.absorbed
        assert 3.0 - TC.params.L1 / 0.5 < occupancy <= 3.0 + 1e-9
        simulate(sys, traj.counts[-1], 0.1, seed)


    def test_full_fractional_jam_cells_restart_the_solvers(self):
        # 12.5/108 km cells fill to x_jam = 13 vehicles, which read rho_jam
        # = 108 veh/km (13 / l is 112.32, outside every solver's domain)
        sys = seg(d=2, ell=12.5 / 108.0, lam=1800.0, nu=0.0).system()
        traj = simulate(sys, [0, 0], 10.0, 0)
        assert traj.absorbed and traj.counts[-1].tolist() == [13, 13]
        rho = traj.density_at(10.0)
        sys.check_domain(rho)
        assert rho.tolist() == [108.0, 108.0]
        tl = solve_moments(sys, rho, np.zeros((2, 2)), [0.0, 0.1])
        np.testing.assert_array_equal(tl.rho[-1], rho)
        em = ensemble_moments(sys, [13, 13], 0.1, [0.0, 0.1], 2)
        assert em.mean.tolist() == [[108.0, 108.0]] * 2


class TestThroughput:
    def test_zero_arrivals(self):
        spec = seg(lam=0.0)
        traj = simulate(spec, [10], 1.0, 0)
        assert estimate_throughput(traj, 0.0, 1.0) == 0.0

    def test_light_traffic_matches_lambda(self):
        spec = seg(d=2, lam=500.0, nu=1800.0)
        vals = []
        for s in np.random.SeedSequence(1).spawn(20):
            traj = simulate(spec, [6, 6], 4.0, s)
            vals.append(estimate_throughput(traj, 1.0, 4.0))
        assert abs(np.mean(vals) - 500.0) < 0.05 * 500.0

    def test_window_validation(self):
        spec = seg()
        traj = simulate(spec, [10], 1.0, 0)
        with pytest.raises(ValueError):
            estimate_throughput(traj, 0.5, 0.5)
        with pytest.raises(ValueError):
            estimate_throughput(traj, 0.0, 2.0)
        # a NaN bound passed every comparison and gave nan
        for window in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                estimate_throughput(traj, *window)

    def test_window_starts_at_or_after_zero(self):
        # the time before 0 would count as zero flow, halving the
        # estimate over [-1, 1]
        traj = simulate(seg(d=3, ell=0.5, lam=1000.0, nu=1200.0), [0, 0, 0], 1.0, 0)
        with pytest.raises(ValueError, match="before time 0"):
            estimate_throughput(traj, -1.0, 1.0)


class TestEnsemble:
    def test_needs_two_replications(self):
        spec = seg()
        for replications in (0, 1):
            with pytest.raises(ValueError, match="2 replications"):
                ensemble_moments(spec, [10], 1.0, [0.5], replications)

    def test_sample_times_inside_horizon(self):
        spec = seg()
        # a NaN sample time passed both bounds and averaged the last states
        for times in ([1.5], [-0.5], [np.nan], [0.5, np.nan]):
            with pytest.raises(ValueError, match="sample times"):
                ensemble_moments(spec, [10], 1.0, times, 4)

    def test_free_flow_mean_density(self):
        spec = seg(d=5, lam=800.0)
        em = ensemble_moments(spec, [10] * 5, 1.0, [0.5, 1.0], 60, 7)
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
            traj = simulate(sys, np.zeros(sys.n_state, dtype=int), 1.0, s)
            n2 += int(np.sum(traj.trans == k2))
            n4 += int(np.sum(traj.trans == k4))
        total = n2 + n4
        assert total > 1000
        frac = n2 / total
        se = np.sqrt(0.25 * 0.75 / total)
        assert abs(frac - 0.25) < 4 * se
