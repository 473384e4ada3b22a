import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.model import SegmentSpec
import flux_reference as ref
from test_kernels import (DAG, TC as TC_EXACT, TC_REAL, bound, daganzo_density, dyadic,
                          two_class_state)

P = DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0)
F = DaganzoFlux(P)
TC = TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065, L2=0.0165,
                    N=3, beta=0.25)
TCF = TwoClassFlux(TC)
# one-cell systems: their check_domain is the diagram's domain check
ONE_CELL = SegmentSpec.uniform(1, 1.0, F, 0.0, 0.0).system()
ONE_CELL_TC = SegmentSpec.uniform(1, 1.0, TCF, (0.0, 0.0), (0.0, 0.0)).system()


class TestParams:
    def test_daganzo_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DaganzoParams(v_f=0.0, w=16.0, rho_max=108.0, q_max=1800.0)
        with pytest.raises(ValueError):
            DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=-1.0)

    def test_two_class_invariants(self):
        with pytest.raises(ValueError):
            TwoClassParams(v_f1=70.0, v_f2=79.2, v_c=61.2, L1=0.0065,
                           L2=0.0165, N=3, beta=0.25)
        with pytest.raises(ValueError):
            TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.02,
                           L2=0.0165, N=3, beta=0.25)
        with pytest.raises(ValueError):
            TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065,
                           L2=0.0165, N=3, beta=1.5)


class TestDaganzoSending:
    def test_empty_cell_sends_nothing(self):
        assert F.sending_scalar(0.0) == 0.0

    def test_free_flow_value(self):
        assert F.sending_scalar(10.0) == 800.0

    def test_capacity_cap(self):
        assert F.sending_scalar(108.0) == 1800.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ONE_CELL.check_domain([-1.0])
        with pytest.raises(ValueError):
            ONE_CELL.check_domain([109.0])

    @given(st.floats(0.0, 108.0), st.floats(0.0, 108.0))
    def test_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert F.sending_scalar(lo) <= F.sending_scalar(hi)


class TestDaganzoReceiving:
    def test_jammed_receiver(self):
        assert F.receiving_scalar(108.0) == 0.0

    def test_empty_receiver(self):
        assert F.receiving_scalar(0.0) == 1728.0

    def test_backward_wave_value(self):
        assert F.receiving_scalar(58.0) == 800.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ONE_CELL.check_domain([120.0])

    @given(st.floats(0.0, 108.0), st.floats(0.0, 108.0))
    def test_nonincreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert F.receiving_scalar(lo) >= F.receiving_scalar(hi)


class TestDiscreteFlux:
    def test_empty(self):
        assert F.flux([0.0], [0.0])[0] == 0.0

    def test_free_flow(self):
        assert F.flux([10.0], [0.0])[0] == 800.0

    def test_jammed_receiver(self):
        assert F.flux([50.0], [108.0])[0] == 0.0

    @given(st.floats(0.0, 108.0), st.floats(0.0, 108.0))
    def test_bounded(self, rs, rr):
        q = F.flux([rs], [rr])[0]
        assert 0.0 <= q <= P.q_max

    @given(st.floats(0.0, 108.0), st.floats(0.0, 108.0),
           st.floats(0.0, 108.0))
    def test_monotone(self, rs, rr, other):
        lo, hi = min(rs, other), max(rs, other)
        assert F.flux([lo], [rr])[0] <= F.flux([hi], [rr])[0]
        assert F.flux([rr], [lo])[0] >= F.flux([rr], [hi])[0]


class TestFluxJacobian:
    def test_free_flow_point(self):
        ds, dr = F.flux_grad([10.0], [0.0])
        assert ds[0, 0] == 80.0
        assert dr[0, 0] == 0.0

    def test_congested_point(self):
        ds, dr = F.flux_grad([50.0], [100.0])
        assert ds[0, 0] == 0.0
        assert dr[0, 0] == -16.0

    def test_capacity_cap_kills_sending_slope(self):
        # sending capped at q_max, receiving strictly active
        ds, dr = F.flux_grad([50.0], [10.0])
        assert ds[0, 0] == 0.0
        assert dr[0, 0] == -16.0

    def test_exact_tie_gives_zero_gradient(self):
        # sending(10) == receiving(58) == 800: tie convention
        ds, dr = F.flux_grad([10.0], [58.0])
        assert ds[0, 0] == 0.0
        assert dr[0, 0] == 0.0

    def test_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(5)
        h, tol, kink_tol = 1e-5, 1e-4, 0.5
        checked = 0
        while checked < 300:
            rs = rng.uniform(0.01, 107.9)
            rr = rng.uniform(0.01, 107.9)
            s = min(P.v_f * rs, P.q_max)
            r = min(P.w * (P.rho_max - rr), P.q_max)
            if (abs(P.v_f * rs - P.q_max) < kink_tol
                    or abs(P.w * (P.rho_max - rr) - P.q_max) < kink_tol
                    or abs(s - r) < kink_tol):
                continue
            ds, dr = F.flux_grad([rs], [rr])
            fd_s = (F.flux([rs + h], [rr])[0]
                    - F.flux([rs - h], [rr])[0]) / (2 * h)
            fd_r = (F.flux([rs], [rr + h])[0]
                    - F.flux([rs], [rr - h])[0]) / (2 * h)
            assert abs(ds[0, 0] - fd_s) < tol
            assert abs(dr[0, 0] - fd_r) < tol
            checked += 1


class TestTwoClassFlux:
    def test_empty(self):
        assert np.all(TCF.flux((0.0, 0.0), (0.0, 0.0)) == 0.0)

    def test_low_density_free_flow(self):
        q = TCF.flux((5.0, 1.0), (0.0, 0.0))
        np.testing.assert_allclose(q, [5 * 108.0, 1 * 79.2])

    def test_full_receiver(self):
        full = (TC.N / TC.L1, 0.0)  # occupancy N
        q = TCF.flux((5.0, 1.0), full)
        np.testing.assert_allclose(q, [0.0, 0.0], atol=1e-9)

    def test_occupancy_domain_error(self):
        with pytest.raises(ValueError):
            ONE_CELL_TC.check_domain([2 * TC.N / TC.L1, 0.0])

    def test_truck_speed_never_exceeds_free_flow(self):
        rng = np.random.default_rng(1)
        f = TwoClassFlux(TC)
        for _ in range(200):
            u = rng.uniform(0, 1, 2)
            rho = u * TC.N / (2 * np.array([TC.L1, TC.L2]))
            q = f.flux(rho, np.zeros(2))
            if rho[1] > 0:
                assert q[1] / rho[1] <= TC.v_f2 + 1e-9

    def test_monotone_per_class(self):
        f = TwoClassFlux(TC)
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = rng.uniform(0, 0.4, 2)
            rho = u * TC.N / np.array([TC.L1, TC.L2])
            bumped = rho + np.array([0.5, 0.0])
            q0 = f.flux(rho, np.zeros(2))
            q1 = f.flux(bumped, np.zeros(2))
            assert q1[0] >= q0[0] - 1e-9

    def test_jacobian_finite_differences(self):
        f = TwoClassFlux(TC)
        rng = np.random.default_rng(3)
        h, tol = 1e-6, 1e-3
        checked = 0
        while checked < 150:
            rho_s = rng.uniform(0.05, 0.45, 2) * TC.N / np.array([TC.L1, TC.L2])
            rho_r = rng.uniform(0.05, 0.45, 2) * TC.N / np.array([TC.L1, TC.L2])
            g = rho_s * f.lengths * f.v_free
            sup = min(f.capacity_occ, f.w_occ * (TC.N - rho_r @ f.lengths))
            vals = [g.sum(), f.capacity_occ, sup,
                    f.w_occ * (TC.N - rho_r @ f.lengths)]
            if min(abs(vals[0] - vals[1]), abs(vals[0] - vals[2]),
                   abs(vals[1] - vals[3])) < 1.0:
                continue
            ds, dr = f.flux_grad(rho_s, rho_r)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (f.flux(rho_s + e, rho_r) - f.flux(rho_s - e, rho_r)) / (2 * h)
                np.testing.assert_allclose(ds[:, k], fd, atol=tol)
                fd = (f.flux(rho_s, rho_r + e) - f.flux(rho_s, rho_r - e)) / (2 * h)
                np.testing.assert_allclose(dr[:, k], fd, atol=tol)
            checked += 1


# ---------------------------------------------------------------------------
# the per-boundary views of the kernels against the reference formulas


def views(f, s, r, lam, nu):
    """(name, library values, reference values) of every per-boundary view
    on sending density s, receiving density r, arrival bound lam and
    departure bound nu."""
    out = [
        ("flux", (f.flux(s, r), *f.flux_grad(s, r)), ref.boundary(f, s, r)),
        ("inflow", (f.inflow(lam, r), f.inflow_grad(lam, r)),
         ref.boundary(f, rho_recv=r, lam=lam)[::2]),
        ("outflow", (f.outflow(s, nu), f.outflow_grad(s, nu)), ref.boundary(f, s, nu=nu)),
        ("demand", (f.demand(s), f.demand_grad(s)),
         ref.boundary(f, s, nu=np.full(f.m, np.inf))),
    ]
    if f.m == 2:
        return out
    p, s, r = f.params, s[0], r[0]
    return out + [
        ("scalar views", (f.sending_scalar(s), f.sending_grad_scalar(s),
                          f.receiving_scalar(r), f.receiving_grad_scalar(r)),
         (ref.sending(p, s), ref.sending_grad(p, s),
          ref.receiving(p, r), ref.receiving_grad(p, r))),
    ]


@settings(max_examples=300, deadline=None)
@given(daganzo_density, daganzo_density, bound | st.just(np.inf), bound | st.just(np.inf))
def test_daganzo_views_match_reference(s, r, lam, nu):
    # on the dyadic grid and the kinks of test_kernels, ties are exact
    for name, got, want in views(DAG, np.array([s]), np.array([r]),
                                 np.array([lam]), np.array([nu])):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, err_msg=name)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_two_class_views_match_reference(exact, data):
    f = TC_EXACT if exact else TC_REAL
    s, r = data.draw(two_class_state(2, f, exact)).reshape(2, 2)
    per_class = (dyadic(16.0, 0.5) if exact else st.floats(0.0, 9000.0)) | st.just(0.0)
    lam, nu = (np.array(data.draw(st.tuples(b, b)))
               for b in (per_class, per_class | st.just(np.inf)))
    # atol as in test_kernels: near a full receiving cell N - occupancy
    # cancels a last-bit difference between the two occupancy sums
    for name, got, want in views(f, s, r, lam, nu):
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-9, err_msg=name)
