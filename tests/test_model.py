import configparser
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussctm.cli import _num, _nums, example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.model import (
    Diverge,
    Merge,
    NetworkConfigError,
    NetworkSpec,
    RoadSpec,
    SegmentSpec,
)

F = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))


FAST = DaganzoFlux(DaganzoParams(v_f=100.0, w=20.0, rho_max=120.0, q_max=2000.0))
TC = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065,
                                 L2=0.0165, N=3, beta=0.25))


def seg(d=3, ell=1.0, lam=800.0, nu=1800.0, flux=F):
    return SegmentSpec.uniform(d, ell, flux, lam, nu)


@st.composite
def systems_and_states(draw):
    """A Daganzo segment, a two-class segment or the example network of
    mixed road fluxes, and a state inside its domain (for two classes,
    total occupancy at most the lane count)."""
    unit, rate = st.floats(0.0, 1.0), st.floats(0.0, 3000.0)
    d, ell = draw(st.integers(1, 4)), draw(st.floats(0.05, 2.0))
    kind = draw(st.sampled_from(["daganzo", "two-class", "network"]))
    if kind == "network":
        fluxes = {r: draw(st.sampled_from([F, FAST]))
                  for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
        splits = [draw(st.floats(0.05, 0.95)) for _ in range(4)]
        sys = example_network(d, ell, fluxes, *splits, draw(rate),
                              draw(rate)).system()
    elif kind == "daganzo":
        sys = seg(d, ell, draw(rate), draw(rate)).system()
    else:
        sys = SegmentSpec.uniform(d, ell, TC, (draw(rate), draw(rate)),
                                  (draw(rate), draw(rate))).system()
    if kind != "two-class":
        return sys, np.array([draw(unit) for _ in range(sys.n_state)]) * sys.rho_jam
    rho = []
    for _ in range(d):
        occ, share = draw(unit) * TC.params.N, draw(unit)
        rho += [occ * (1.0 - share) / TC.params.L1, occ * share / TC.params.L2]
    return sys, np.minimum(rho, sys.rho_jam)


class TestSegmentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentSpec.uniform(0, 1.0, F, 800.0, 1800.0)
        with pytest.raises(ValueError):
            SegmentSpec.uniform(3, -1.0, F, 800.0, 1800.0)
        with pytest.raises(ValueError):
            SegmentSpec.uniform(3, 1.0, F, -5.0, 1800.0)
        with pytest.raises(ValueError):
            SegmentSpec(3, (1.0, 1.0), F, (800.0,), (1800.0,))

    @pytest.mark.parametrize("lam", [(np.inf, 100.0), (100.0, np.inf),
                                     (np.nan, 100.0)])
    def test_two_class_arrival_bound_must_be_finite(self, lam):
        # an infinite occupancy demand would split as inf / inf: NaN rates
        j = 1 + int(not np.isfinite(lam[1]))
        with pytest.raises(ValueError, match=f"class {j} must be finite"):
            SegmentSpec.uniform(2, 0.5, TC, lam, (2000.0, 500.0))

    def test_daganzo_arrival_bound_may_be_infinite(self):
        q = SegmentSpec.uniform(2, 0.5, F, np.inf, 1800.0).system().rates(np.zeros(2))
        assert np.all(np.isfinite(q))
        # arrivals into an empty cell: its receiving flow w rho_max
        assert q[0] == F.params.w * F.params.rho_max

    def test_flux_type_checked_first(self):
        # d = 0 would fail the next check; the flux is named before it
        with pytest.raises(TypeError, match="not object"):
            SegmentSpec(0, (), object(), (800.0,), (1800.0,))
        with pytest.raises(TypeError, match="not DaganzoParams"):
            SegmentSpec.uniform(3, 1.0, F.params, 800.0, 1800.0)

    def test_system_shape(self):
        sys = seg(d=5).system()
        assert sys.n_state == 5
        assert sys.n_trans == 6
        assert sys.labels[0] == "q[0,1]"
        assert sys.labels[-1] == "q[5,1]"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_cells():
    """(flux, cell length km) for every segment and road in `configs/`,
    over every swept cell length and lane count."""
    out = []
    for path in sorted(CONFIGS.glob("*.ini")):
        cfg = configparser.ConfigParser()
        cfg.read(path)
        for sec in cfg.values():
            if "rho_max_veh_per_km" in sec:  # x_jam reads rho_max and l only
                flux = DaganzoFlux(DaganzoParams(
                    v_f=80.0, w=16.0, rho_max=_num(sec["rho_max_veh_per_km"]),
                    q_max=1800.0))
                lengths = (_nums(sec["cell_length_km"]) if "cell_length_km" in sec
                           else _nums(cfg["sweep"]["cell_lengths_km"]))
                out += [pytest.param(flux, ell,
                                     id=f"{path.stem}-{sec.name}-l{ell:.4g}")
                        for ell in lengths]
            if "L_car_km" in sec:  # two-class control segment
                for n in _nums(cfg["sweeps"]["n_lanes_values"]):
                    flux = TwoClassFlux(TwoClassParams(
                        v_f1=_num(sec["v_f_car_km_per_h"]),
                        v_f2=_num(sec["v_f_truck_km_per_h"]),
                        v_c=_num(sec["v_c_km_per_h"]), L1=_num(sec["L_car_km"]),
                        L2=_num(sec["L_truck_km"]), N=int(n), beta=_num(sec["beta"])))
                    ell = _num(cfg["segment"]["cell_length_km"])
                    out.append(pytest.param(flux, ell,
                                            id=f"{path.stem}-N{int(n)}-l{ell:.4g}"))
    return out


class TestJamCount:
    """x_jam is the smallest count at which the receiving rate, clipped
    at zero, is zero: ceil(rho_jam l), or rint where rho_jam l is whole
    to 1e-9 relative."""

    def test_arrivals_stop_at_a_fractional_jam_count(self):
        # rho_max l = 20.25: at 20 vehicles the supply is still 21 veh/h
        # (rint gave x_jam = 20, and a simulated arrival passed it)
        sys = seg(d=1, ell=0.1875, lam=12.0, nu=2.0).system()
        assert sys.x_jam.tolist() == [21]
        assert sys.rates(np.array([20.0 / 0.1875]))[0] == 12.0
        assert sys.rates(np.array([21.0 / 0.1875]))[0] == 0.0

    @pytest.mark.parametrize("ell, x_jam", [(0.5, 54), (15 / 108.0, 15),
                                            (12.5 / 108.0, 13)])
    def test_count_density(self, ell, x_jam):
        # a whole jam count, one where x_jam * (1 / l) rounds just below
        # rho_max, and a fractional one, where 13 / l would read 112.32
        # veh/km: a full cell stands for rho_max exactly, every other
        # count x for x * (1 / l)
        sys = seg(d=2, ell=ell).system()
        assert sys.x_jam.tolist() == [x_jam, x_jam]
        dens = sys.count_density
        assert dens.shape == (2, x_jam + 1)
        assert dens[:, x_jam].tolist() == [108.0, 108.0]
        below = np.arange(x_jam) * (1 / ell)
        assert np.array_equal(dens[:, :x_jam], [below, below])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(0.01, 2.0),
                     st.integers(1, 216).map(lambda k: k / 108.0)))
    def test_smallest_count_with_zero_supply(self, ell):
        sys = seg(d=1, ell=ell, lam=1e9, nu=0.0).system()
        x = sys.x_jam[0]
        assert sys.rates(np.array([(x - 1) / ell]))[0] > 0.0
        # zero beyond rounding where rho_max l is read as whole
        assert sys.rates(np.array([x / ell]))[0] <= 1e-9 * F.params.q_max

    @pytest.mark.parametrize("flux, ell", config_cells())
    def test_config_cell_lengths(self, flux, ell):
        lam = (1.0,) * flux.m
        sys = SegmentSpec.uniform(1, ell, flux, lam, lam).system()
        jam = flux.rho_jam * ell
        if isinstance(flux, DaganzoFlux):
            # every Daganzo cell holds a whole count at jam density
            np.testing.assert_array_equal(sys.x_jam, np.rint(jam))
        else:
            # a class alone fills a two-class cell at N l / L_j vehicles,
            # a fraction at every lane count: rint fell short below .5
            np.testing.assert_array_equal(sys.x_jam, np.ceil(jam))
            for j in range(2):
                x = np.zeros(2)
                x[j] = sys.x_jam[j] - 1
                assert sys.rates(x / ell)[j] > 0.0
                x[j] += 1
                assert sys.rates(x / ell)[j] == 0.0


class TestRateVector:
    def test_empty_segment(self):
        q = seg(d=3, lam=1800.0).system().rates(np.zeros(3))
        # arrivals limited by the empty-cell supply w * rho_max = 1728
        assert q[0] == 1728.0
        assert np.all(q[1:] == 0.0)

    def test_jammed_segment(self):
        q = seg(d=3, lam=1800.0, nu=1200.0).system().rates(np.full(3, 108.0))
        assert q[0] == 0.0          # no supply at the first cell
        assert np.all(q[1:3] == 0.0)  # interior boundaries blocked
        assert q[3] == 1200.0       # departures capped by nu

    def test_uniform_free_flow(self):
        q = seg(d=3).system().rates(np.full(3, 10.0))
        np.testing.assert_allclose(q, 800.0)

    def test_domain_check(self):
        sys = seg(d=3).system()
        with pytest.raises(ValueError):
            sys.check_domain(np.full(3, 200.0))
        with pytest.raises(ValueError):
            sys.check_domain(np.zeros(4))


class TestIncidence:
    def test_two_cell_structure(self):
        sys = seg(d=2).system()
        H = sys.H
        np.testing.assert_array_equal(H, [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        np.testing.assert_array_equal(sys.LH, np.eye(2) @ H)

    def test_length_scaling(self):
        sys = SegmentSpec.uniform(2, 2.0, F, 800.0, 1800.0).system()
        np.testing.assert_array_equal(sys.LH, (np.eye(2) / 2.0) @ sys.H)

    def test_two_class_layout(self):
        tc = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2,
                                         L1=0.0065, L2=0.0165, N=3, beta=0.25))
        sys = SegmentSpec.uniform(1, 1.0, tc, (800.0, 200.0), (900.0, 300.0)).system()
        # one cell, two classes: arrivals then departures per class
        np.testing.assert_array_equal(sys.H, [[1.0, 0.0, -1.0, 0.0],
                                          [0.0, 1.0, 0.0, -1.0]])

    def test_column_sums_telescoping(self):
        sys = seg(d=5).system()
        col = sys.lengths @ sys.LH
        expected = np.zeros(6)
        expected[0], expected[-1] = 1.0, -1.0
        np.testing.assert_allclose(col, expected, atol=1e-12)


class TestDrift:
    def test_balanced_state_has_zero_drift(self):
        sys = seg(d=3).system()
        np.testing.assert_allclose(sys.drift(np.full(3, 10.0)), 0.0,
                                   atol=1e-12)

    def test_filling_from_empty(self):
        f = seg(d=3, lam=800.0).system().drift(np.zeros(3))
        np.testing.assert_allclose(f, [800.0, 0.0, 0.0])

    @settings(max_examples=150, deadline=None)
    @given(systems_and_states())
    @example((seg(d=4, ell=0.5, lam=1400.0, nu=1200.0).system(),
              np.random.default_rng(0).uniform(0.0, 108.0, (50, 4))))
    def test_mass_conservation(self, case):
        # per class: sum over cells of l F(rho) = arrivals - departures
        sys, states = case
        cls = np.arange(sys.n_state) % sys.m
        arrivals, departures = sys.src < 0, sys.dst < 0
        for rho in np.atleast_2d(states):
            q = sys.rates(rho)
            held = sys.state_lengths * sys.drift(rho)
            for c in range(sys.m):
                inflow = q[arrivals & (cls[sys.dst] == c)].sum()
                outflow = q[departures & (cls[sys.src] == c)].sum()
                np.testing.assert_allclose(held[cls == c].sum(), inflow - outflow,
                                           rtol=1e-12, atol=1e-9)

    def test_jacobian_finite_differences(self):
        spec = seg(d=4, lam=1400.0, nu=1200.0)
        sys = spec.system()
        rng = np.random.default_rng(7)
        h, checked = 1e-6, 0
        while checked < 60:
            rho = rng.uniform(1.0, 107.0, 4)
            if _near_kink(rho):
                continue
            J = sys.drift_jacobian(rho)
            fd = np.zeros_like(J)
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd[:, k] = (sys.drift(rho + e) - sys.drift(rho - e)) / (2 * h)
            np.testing.assert_allclose(J, fd, atol=1e-3)
            checked += 1


def _near_kink(rho, tol=1.0):
    """True when any two piecewise-linear branch values of the rate
    vector are within tol of each other at this state."""
    vals = []
    for r in rho:
        vals.append(80.0 * r)
        vals.append(16.0 * (108.0 - r))
    vals += [1400.0, 1200.0, 1800.0]
    vals = sorted(vals)
    return any(b - a < tol for a, b in zip(vals, vals[1:]))


def symmetric_network(lam=1800.0, nu=900.0, p12=0.5):
    f = {r: F for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
    return example_network(5, 1.0, f, p12, 0.75, 0.75, 0.5, lam, nu)


class TestNetworkValidation:
    def test_duplicate_names(self):
        with pytest.raises(NetworkConfigError):
            NetworkSpec(roads=(RoadSpec("a", 2, 1.0, F),
                               RoadSpec("a", 2, 1.0, F)))

    def test_diverge_probabilities(self):
        roads = (RoadSpec("a", 2, 1.0, F), RoadSpec("b", 2, 1.0, F),
                 RoadSpec("c", 2, 1.0, F))
        with pytest.raises(NetworkConfigError):
            NetworkSpec(roads=roads,
                        diverges=(Diverge("a", (("b", 0.6), ("c", 0.6))),))

    def test_merge_needs_two_upstreams(self):
        roads = (RoadSpec("a", 2, 1.0, F), RoadSpec("b", 2, 1.0, F),
                 RoadSpec("c", 2, 1.0, F), RoadSpec("d", 2, 1.0, F))
        with pytest.raises(NetworkConfigError):
            NetworkSpec(roads=roads,
                        merges=(Merge((("a", 0.4), ("b", 0.3), ("c", 0.3)),
                                      "d"),))

    def test_arrival_on_junction_cell(self):
        roads = (RoadSpec("a", 2, 1.0, F), RoadSpec("b", 2, 1.0, F),
                 RoadSpec("c", 2, 1.0, F))
        with pytest.raises(NetworkConfigError):
            NetworkSpec(roads=roads,
                        diverges=(Diverge("a", (("b", 0.5), ("c", 0.5))),),
                        arrivals=(("b", 800.0),))

    def test_unknown_road(self):
        roads = (RoadSpec("a", 2, 1.0, F), RoadSpec("b", 2, 1.0, F))
        with pytest.raises(NetworkConfigError):
            NetworkSpec(roads=roads,
                        links=(("a", "b"),),
                        diverges=(Diverge("a", (("b", 0.5), ("zz", 0.5))),))


class TestNetworkRates:
    def test_diverge_split(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[4] = 15.0  # last cell of r1 sends 1200, branches empty
        sys = net.system()
        rates = dict(zip(sys.labels, sys.rates(state)))
        assert rates["r1->r2"] == 600.0
        assert rates["r1->r4"] == 600.0

    def test_diverge_blocked_branch(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[4] = 15.0
        state[5] = 108.0  # first cell of r2 jammed: FIFO blocks the whole split
        sys = net.system()
        rates = dict(zip(sys.labels, sys.rates(state)))
        assert rates["r1->r2"] == 0.0
        assert rates["r1->r4"] == 0.0

    def test_merge_saturated(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[14] = 40.0  # r3 last cell demands 1800
        state[24] = 40.0  # r5 last cell demands 1800
        sys = net.system()
        rates = dict(zip(sys.labels, sys.rates(state)))
        # downstream supply 16 * 108 = 1728 split by priorities 0.5/0.5
        assert rates["r3->r6"] == 864.0
        assert rates["r5->r6"] == 864.0

    def test_merge_unsaturated_passes_demands(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[14] = 5.0
        state[24] = 10.0
        sys = net.system()
        rates = dict(zip(sys.labels, sys.rates(state)))
        assert rates["r3->r6"] == 400.0
        assert rates["r5->r6"] == 800.0

    def test_branch_swap_symmetry(self):
        net = symmetric_network()
        sys = net.system()
        perm = np.arange(34)
        perm[5:10], perm[15:20] = np.arange(15, 20), np.arange(5, 10)
        perm[10:15], perm[20:25] = np.arange(20, 25), np.arange(10, 15)
        perm[31], perm[32] = 32, 31
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = rng.uniform(0.0, 60.0, 34)
            f1 = sys.drift(rho)
            f2 = sys.drift(rho[perm])
            np.testing.assert_allclose(f1[perm], f2, atol=1e-9)

    def test_network_jacobian_finite_differences(self):
        net = symmetric_network()
        sys = net.system()
        rng = np.random.default_rng(11)
        h, checked = 1e-6, 0
        while checked < 20:
            rho = rng.uniform(1.0, 50.0, 34)
            J = sys.drift_jacobian(rho)
            fd = np.zeros_like(J)
            for k in range(34):
                e = np.zeros(34)
                e[k] = h
                fd[:, k] = (sys.drift(rho + e) - sys.drift(rho - e)) / (2 * h)
            if not np.allclose(J, fd, atol=1e-3):
                continue  # kink landed between FD points
            checked += 1
        assert checked == 20
