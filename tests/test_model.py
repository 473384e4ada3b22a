import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussctm.cli import example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.model import (
    Diverge,
    Merge,
    NetworkConfigError,
    NetworkSpec,
    RoadSpec,
    SegmentSpec,
    dispersion,
    drift,
    drift_jacobian,
    incidence_matrices,
    network_rate_vector,
    rate_vector,
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

    def test_system_shape(self):
        sys = seg(d=5).system()
        assert sys.n_state == 5
        assert sys.n_trans == 6
        assert sys.labels[0] == "q[0,1]"
        assert sys.labels[-1] == "q[5,1]"


class TestRateVector:
    def test_empty_segment(self):
        spec = seg(d=3, lam=1800.0)
        q = rate_vector(np.zeros(3), spec)
        # arrivals limited by the empty-cell supply w * rho_max = 1728
        assert q[0] == 1728.0
        assert np.all(q[1:] == 0.0)

    def test_jammed_segment(self):
        spec = seg(d=3, lam=1800.0, nu=1200.0)
        q = rate_vector(np.full(3, 108.0), spec)
        assert q[0] == 0.0          # no supply at the first cell
        assert np.all(q[1:3] == 0.0)  # interior boundaries blocked
        assert q[3] == 1200.0       # departures capped by nu

    def test_uniform_free_flow(self):
        spec = seg(d=3)
        q = rate_vector(np.full(3, 10.0), spec)
        np.testing.assert_allclose(q, 800.0)

    def test_domain_check(self):
        spec = seg(d=3)
        with pytest.raises(ValueError):
            rate_vector(np.full(3, 200.0), spec)
        with pytest.raises(ValueError):
            rate_vector(np.zeros(4), spec)


class TestIncidence:
    def test_two_cell_structure(self):
        L, H = incidence_matrices(seg(d=2))
        np.testing.assert_array_equal(L, np.eye(2))
        np.testing.assert_array_equal(H, [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])

    def test_length_scaling(self):
        L, _ = incidence_matrices(SegmentSpec.uniform(2, 2.0, F, 800.0, 1800.0))
        np.testing.assert_array_equal(L, np.eye(2) / 2.0)

    def test_two_class_layout(self):
        tc = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2,
                                         L1=0.0065, L2=0.0165, N=3, beta=0.25))
        L, H = incidence_matrices(SegmentSpec.uniform(1, 1.0, tc,
                                                      (800.0, 200.0),
                                                      (900.0, 300.0)))
        # one cell, two classes: arrivals then departures per class
        np.testing.assert_array_equal(H, [[1.0, 0.0, -1.0, 0.0],
                                          [0.0, 1.0, 0.0, -1.0]])

    def test_column_sums_telescoping(self):
        sys = seg(d=5).system()
        col = sys.lengths @ sys.LH
        expected = np.zeros(6)
        expected[0], expected[-1] = 1.0, -1.0
        np.testing.assert_allclose(col, expected, atol=1e-12)


class TestDrift:
    def test_balanced_state_has_zero_drift(self):
        spec = seg(d=3)
        np.testing.assert_allclose(drift(np.full(3, 10.0), spec), 0.0,
                                   atol=1e-12)

    def test_filling_from_empty(self):
        spec = seg(d=3, lam=800.0)
        f = drift(np.zeros(3), spec)
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


class TestDispersion:
    def test_sqrt_rate_columns(self):
        spec = seg(d=3, ell=0.5)
        rho = np.array([10.0, 20.0, 30.0])
        sys = spec.system()
        B = dispersion(rho, spec)
        q = sys.rates(rho)
        np.testing.assert_allclose(B, sys.LH * np.sqrt(q)[None, :])
        # BB^T equals LH diag(q) (LH)^T
        np.testing.assert_allclose(B @ B.T,
                                   sys.LH @ np.diag(q) @ sys.LH.T, atol=1e-9)

    def test_zero_rates_zero_noise(self):
        spec = seg(d=2, lam=0.0)
        assert np.all(dispersion(np.zeros(2), spec) == 0.0)


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
        q, labels = network_rate_vector(state, net)
        rates = dict(zip(labels, q))
        assert rates["r1->r2"] == 600.0
        assert rates["r1->r4"] == 600.0

    def test_diverge_blocked_branch(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[4] = 15.0
        state[5] = 108.0  # first cell of r2 jammed: FIFO blocks the whole split
        q, labels = network_rate_vector(state, net)
        rates = dict(zip(labels, q))
        assert rates["r1->r2"] == 0.0
        assert rates["r1->r4"] == 0.0

    def test_merge_saturated(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[14] = 40.0  # r3 last cell demands 1800
        state[24] = 40.0  # r5 last cell demands 1800
        q, labels = network_rate_vector(state, net)
        rates = dict(zip(labels, q))
        # downstream supply 16 * 108 = 1728 split by priorities 0.5/0.5
        assert rates["r3->r6"] == 864.0
        assert rates["r5->r6"] == 864.0

    def test_merge_unsaturated_passes_demands(self):
        net = symmetric_network()
        state = np.zeros(34)
        state[14] = 5.0
        state[24] = 10.0
        q, labels = network_rate_vector(state, net)
        rates = dict(zip(labels, q))
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
