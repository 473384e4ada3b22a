"""The array kernels behind TransitionSystem.rates / rate_jacobian against
the per-boundary formulas of `flux_reference`, on random states and on
states snapped onto kinks (so that both tie conventions are pinned), plus
central differences away from kinks."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussctm.cli import example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.model import NetworkConfigError, NetworkSpec, RoadSpec, SegmentSpec
import flux_reference as ref

# dyadic parameters: every candidate flow is exact on a dyadic grid of
# densities, so ties between branches occur exactly
DAG = DaganzoFlux(DaganzoParams(v_f=80.0, w=20.0, rho_max=120.0, q_max=1800.0))
DAG_KINKS = (0.0, 22.5, 30.0, 120.0)  # empty, v_f rho = q_max, w (...) = q_max, jam
FAST = DaganzoFlux(DaganzoParams(v_f=100.0, w=20.0, rho_max=120.0, q_max=2000.0))
TC = TwoClassFlux(TwoClassParams(v_f1=8.0, v_f2=4.0, v_c=4.0, L1=0.25, L2=0.5,
                                 N=2, beta=0.5))  # capacity 4, w_occ 4
TC_REAL = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2,
                                      L1=0.0065, L2=0.0165, N=3, beta=0.25))
SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# per-boundary references


def segment_reference(spec, rho):
    f, m, d = spec.flux, spec.m, spec.d
    q = np.zeros((d + 1) * m)
    # boundary b sends from column block b and receives into block b + 1;
    # blocks 0 and d + 1 stand for the arrivals and the departures
    J = np.zeros(((d + 1) * m, (d + 2) * m))
    cells = [None, *rho.reshape(d, m), None]
    for b in range(d + 1):
        row, send, recv = (slice(c * m, c * m + m) for c in (b, b, b + 1))
        q[row], J[row, send], J[row, recv] = ref.boundary(f, cells[b], cells[b + 1],
                                                          spec.lam, spec.nu)
    return np.maximum(q, 0.0), J[:, m:-m]


def _tied(value, values, grads):
    """Gradient averaged over the candidates attaining `value`."""
    active = [g for v, g in zip(values, grads) if v == value]
    out = {}
    for g in active:
        for k, v in g.items():
            out[k] = out.get(k, 0.0) + v / len(active)
    return out


def network_reference(net, rho):
    """{label: (rate, {state: d rate / d rho})} from the reference scalars."""
    roads = {r.name: r for r in net.roads}
    first, last, n = {}, {}, 0
    for r in net.roads:
        first[r.name], last[r.name] = n, n + r.n_cells - 1
        n += r.n_cells
    out = {}

    def demand(road):
        p, c = roads[road].flux.params, last[road]
        return ref.sending(p, rho[c]), {c: ref.sending_grad(p, rho[c])}

    def supply(road):
        p, c = roads[road].flux.params, first[road]
        return ref.receiving(p, rho[c]), {c: ref.receiving_grad(p, rho[c])}

    def link(label, f, src=None, dst=None, lam=None, nu=None):
        q, ds, dr = ref.boundary(f, None if src is None else rho[[src]],
                                 None if dst is None else rho[[dst]], [lam], [nu])
        out[label] = (q[0], {c: g[0, 0] for c, g in ((src, ds), (dst, dr)) if c is not None})

    for r in net.roads:
        for i in range(r.n_cells - 1):
            c = first[r.name] + i
            link(f"{r.name}[{i + 1}->{i + 2}]", r.flux, c, c + 1)
    for a, b in net.links:
        link(f"{a}->{b}", roads[b].flux, last[a], first[b])
    for road, lam in net.arrivals:
        link(f"arrival->{road}", roads[road].flux, dst=first[road], lam=lam)
    for road, nu in net.departures:
        link(f"{road}->departure", roads[road].flux, src=last[road], nu=nu)
    for dv in net.diverges:
        cands = [demand(dv.upstream)] + [
            (v / p, {k: g / p for k, g in gr.items()})
            for (b, p), (v, gr) in ((br, supply(br[0])) for br in dv.branches)]
        vals, grads = zip(*cands)
        total = min(vals)
        g = _tied(total, vals, grads)
        for b, p in dv.branches:
            out[f"{dv.upstream}->{b}"] = (p * total, {k: p * v for k, v in g.items()})
    for mg in net.merges:
        (ra, pa), (rb, pb) = mg.upstreams
        (sa, ga), (sb, gb), (r, gr) = demand(ra), demand(rb), supply(mg.downstream)
        for road, s, gs, so, gso, p in ((ra, sa, ga, sb, gb, pa),
                                        (rb, sb, gb, sa, ga, pb)):
            label = f"{road}->{mg.downstream}"
            if sa + sb <= r:
                out[label] = (s, gs)
                continue
            vals = (s, r - so, p * r)
            grads = (gs, {**{k: -v for k, v in gso.items()}, **gr},
                     {k: p * v for k, v in gr.items()})
            med = sorted(vals)[1]
            out[label] = (med, _tied(med, vals, grads))
    return out


def assert_network_matches(net, rho):
    sys = net.system()
    ref = network_reference(net, rho)
    assert sorted(ref) == sorted(sys.labels)
    q, J = sys.rates(rho), sys.rate_jacobian(rho)
    for t, label in enumerate(sys.labels):
        rate, grad = ref[label]
        row = np.zeros(sys.n_state)
        for k, v in grad.items():
            row[k] += v
        np.testing.assert_allclose(q[t], max(rate, 0.0), rtol=1e-12, atol=1e-9,
                                   err_msg=label)
        np.testing.assert_allclose(J[t], row, rtol=1e-12, atol=1e-12, err_msg=label)


def smooth_fd_check(sys, rho, h):
    """Jacobian against central differences wherever the forward and the
    backward difference agree (no kink within h); returns the share of
    entries checked."""
    J = sys.rate_jacobian(rho)
    q0 = sys.rates(rho)
    checked = 0
    for k in range(sys.n_state):
        e = np.zeros(sys.n_state)
        e[k] = h
        qp, qm = sys.rates(rho + e), sys.rates(rho - e)
        fwd, bwd = (qp - q0) / h, (q0 - qm) / h
        smooth = np.abs(fwd - bwd) < 1e-2 * (1.0 + np.abs(fwd))
        np.testing.assert_allclose(J[smooth, k], ((qp - qm) / (2 * h))[smooth],
                                   rtol=1e-5, atol=1e-5)
        checked += smooth.sum()
    return checked / J.size


# ---------------------------------------------------------------------------
# strategies


def dyadic(hi, step=0.25):
    return st.integers(0, int(hi / step)).map(lambda k: k * step)


daganzo_density = st.one_of(st.sampled_from(DAG_KINKS), dyadic(120.0),
                            st.floats(0.0, 120.0))
bound = st.one_of(st.sampled_from([0.0, 800.0, 1200.0, 1600.0, 1800.0, 2400.0]),
                  st.floats(0.0, 2500.0))


@st.composite
def two_class_state(draw, d, flux, exact):
    """Densities of d cells within the occupancy limit; on the dyadic
    grid when `exact`, so that the branches of the shared flux tie."""
    N, (L1, L2) = flux.params.N, flux.lengths
    rho = []
    for _ in range(d):
        if exact:
            r1 = draw(dyadic(N / L1, 0.125))
            r2 = draw(dyadic((N - L1 * r1) / L2, 0.125))
        else:
            r1 = draw(st.floats(0.0, N / L1))
            r2 = draw(st.floats(0.0, (N - L1 * r1) / L2 * (1 - 1e-12)))
        rho += [r1, r2]
    return np.array(rho)


# ---------------------------------------------------------------------------
# rates and Jacobians against the references


@SETTINGS
@given(st.integers(1, 6), st.data(), bound, bound)
def test_daganzo_segment_matches_reference(d, data, lam, nu):
    spec = SegmentSpec.uniform(d, 0.5, DAG, lam, nu)
    rho = np.array(data.draw(st.lists(daganzo_density, min_size=d, max_size=d)))
    q_ref, J_ref = segment_reference(spec, rho)
    sys = spec.system()
    np.testing.assert_array_equal(sys.rates(rho), q_ref)
    np.testing.assert_array_equal(sys.rate_jacobian(rho), J_ref)


@SETTINGS
@given(st.integers(1, 5), st.booleans(), st.data())
def test_two_class_segment_matches_reference(d, exact, data):
    flux = TC if exact else TC_REAL
    if exact:
        lam = data.draw(st.tuples(dyadic(8.0, 0.5), dyadic(4.0, 0.5)))
        nu = data.draw(st.tuples(dyadic(16.0, 0.5), dyadic(8.0, 0.5)))
    else:
        lam = data.draw(st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 2000.0)))
        nu = data.draw(st.tuples(st.floats(0.0, 9000.0), st.floats(0.0, 3000.0)))
    spec = SegmentSpec.uniform(d, 0.5, flux, lam, nu)
    rho = data.draw(two_class_state(d, flux, exact))
    q_ref, J_ref = segment_reference(spec, rho)
    sys = spec.system()
    np.testing.assert_allclose(sys.rates(rho), q_ref, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(sys.rate_jacobian(rho), J_ref, rtol=1e-12, atol=1e-9)


TWO_CLASS_KINKS = [  # one cell; capacity 4, w_occ 4, N 2, demand g = 2 rho
    ([1.0, 0.0], (16.0, 0.0)),  # arrivals: demand = supply = capacity = 4
    ([2.0, 1.5], (12.0, 0.0)),  # arrivals: demand = wave supply 3 < capacity
    ([2.0, 0.0], (4.0, 2.0)),   # departures: demand = capacity = 4
    ([4.0, 0.0], (8.0, 8.0)),   # occupancy 1: wave supply = capacity < demand
    ([0.0, 0.0], (0.0, 0.0)),   # nothing moves
]


@pytest.mark.parametrize("rho, lam", TWO_CLASS_KINKS)
@pytest.mark.parametrize("nu", [(1.0, 1.0), (8.0, 0.0), (16.0, 8.0)])
def test_two_class_kinks_match_reference(rho, lam, nu):
    spec = SegmentSpec.uniform(1, 1.0, TC, lam, nu)
    rho = np.array(rho)
    q_ref, J_ref = segment_reference(spec, rho)
    sys = spec.system()
    np.testing.assert_array_equal(sys.rates(rho), q_ref)
    np.testing.assert_array_equal(sys.rate_jacobian(rho), J_ref)


@pytest.mark.parametrize("flux", [TC, TC_REAL])
@pytest.mark.parametrize("rho", [[0.0, 2.22507386e-311], [5e-324, 5e-324]])
@pytest.mark.parametrize("lam, nu", [((0.0, 0.0), (0.0, 0.0)), ((1.0, 2.0), (5.0, 5.0))])
def test_two_class_subnormal_state_has_finite_jacobian(flux, rho, lam, nu):
    # 1 / total overflows for a subnormal total; the free-flow slope is 1
    spec = SegmentSpec.uniform(1, 0.5, flux, lam, nu)
    rho = np.array(rho)
    _, J_ref = segment_reference(spec, rho)
    J = spec.system().rate_jacobian(rho)
    assert np.all(np.isfinite(J))
    np.testing.assert_array_equal(J, J_ref)


def example(p12=0.5, fluxes=None):
    f = fluxes or {r: DAG for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
    return example_network(3, 0.5, f, p12, 0.75, 0.75, 0.5, 1800.0, 900.0)


network_density = st.one_of(
    st.sampled_from([0.0, 10.0, 20.0, 22.5, 30.0, 40.0, 60.0, 100.0, 120.0]),
    dyadic(120.0), st.floats(0.0, 120.0))


@SETTINGS
@given(st.lists(network_density, min_size=22, max_size=22),
       st.sampled_from([0.25, 0.5, 0.75]), st.booleans())
def test_network_matches_reference(rho, p12, asym):
    fluxes = None
    if asym:
        fluxes = {"r1": DAG, "r2": FAST, "r3": FAST, "r4": DAG, "r5": DAG, "r6": FAST}
    assert_network_matches(example(p12, fluxes), np.array(rho))


def test_network_junction_ties_are_averaged():
    net = example()
    sys = net.system()
    rho = np.zeros(sys.n_state)
    idx = {label: k for k, label in enumerate(sys.cell_labels)}
    # r3 and r5 demand 1600 each into r6 with supply 1800 and priorities
    # 1/2: R - D_other = 200 < p R = 900 < D, so each gets 900
    rho[idx["r3[3]"]] = rho[idx["r5[3]"]] = 20.0
    rho[idx["r6[1]"]] = 30.0
    # r1 demands 800 = R / p at both empty branches of p = 1/2: a tie
    # of demand and both supplies, averaged over all three
    rho[idx["r1[3]"]] = 10.0
    rho[idx["r2[1]"]] = rho[idx["r4[1]"]] = 120.0 - 800.0 * 0.5 / 20.0
    assert_network_matches(net, rho)
    q, J = sys.rates(rho), sys.rate_jacobian(rho)
    t = {label: k for k, label in enumerate(sys.labels)}
    assert q[t["r3->r6"]] == q[t["r5->r6"]] == 900.0
    np.testing.assert_allclose(J[t["r1->r2"], idx["r1[3]"]], 80.0 / 2 / 3)

    # demands 800 and 1200 into supply 1600: r3 gets median(800, 400, 800)
    # and r5 median(1200, 800, 800), each a tie of two candidates
    rho[idx["r3[3]"]], rho[idx["r5[3]"]], rho[idx["r6[1]"]] = 10.0, 15.0, 40.0
    assert_network_matches(net, rho)
    q, J = sys.rates(rho), sys.rate_jacobian(rho)
    assert q[t["r3->r6"]] == q[t["r5->r6"]] == 800.0
    r3, r5, r6 = idx["r3[3]"], idx["r5[3]"], idx["r6[1]"]
    np.testing.assert_allclose(J[t["r3->r6"], [r3, r5, r6]], [40.0, 0.0, -5.0])
    np.testing.assert_allclose(J[t["r5->r6"], [r3, r5, r6]], [-40.0, 0.0, -15.0])


# ---------------------------------------------------------------------------
# the Daganzo Jacobian memo: one entry per branch regime


def fresh_jacobian(sys, rho):
    """kernel.jacobian scattered into the dense pattern, past the memo."""
    k = sys.kernel
    dq = np.bincount(k.rows * sys.n_state + k.cols, weights=k.jacobian(rho),
                     minlength=sys.n_trans * sys.n_state)
    return dq.reshape(sys.n_trans, sys.n_state)


def assert_memo_exact(sys, states):
    """rate_jacobian along `states` equals a fresh evaluation bit for bit,
    whether the memo misses or hits."""
    for rho in states:
        J = sys.rate_jacobian(rho)
        assert J.tobytes() == fresh_jacobian(sys, rho).tobytes()
        assert not J.flags.writeable
    assert 1 <= len(sys._jac_memo) <= len(states)


def capacity_snapped(rho, fluxes):
    """rho rounded to multiples of each cell's capacity density
    q_max / v_f, where demands reach capacity and candidates tie."""
    rc = np.array([f.params.q_max / f.params.v_f for f in fluxes])
    return np.minimum(np.rint(rho / rc) * rc, [f.params.rho_max for f in fluxes])


@st.composite
def walks(draw, n, density, cells=None):
    """A state of n cells and up to 11 more, each redrawing one to three
    cells of the one before (drawn from `cells` if given): like RK4
    stages, neighbours share most branch masks and differ in a few."""
    if cells is None:
        cells = st.integers(0, n - 1)
    rho = np.array(draw(st.lists(density, min_size=n, max_size=n)))
    states = [rho]
    for _ in range(draw(st.integers(0, 11))):
        rho = rho.copy()
        for i in draw(st.lists(cells, min_size=1, max_size=3)):
            rho[i] = draw(density)
        states.append(rho)
    return states


# free flow (10, 20), capacity (22.5), congestion (30, 60, 100) and jam:
# link candidates below capacity on both sides in either order
segment_walk_density = st.one_of(
    st.sampled_from([0.0, 10.0, 20.0, 22.5, 30.0, 60.0, 100.0, 120.0]),
    daganzo_density)


@SETTINGS
@given(st.integers(1, 6), bound, bound, st.booleans(), st.data())
def test_memo_matches_fresh_jacobian_on_segments(d, lam, nu, snap, data):
    sys = SegmentSpec.uniform(d, 0.5, DAG, lam, nu).system()
    states = data.draw(walks(d, segment_walk_density))
    if snap:
        states = [capacity_snapped(rho, [DAG] * d) for rho in states]
    assert_memo_exact(sys, states)


@SETTINGS
@given(st.sampled_from([0.25, 0.5, 0.75]), st.booleans(), st.booleans(), st.data())
def test_memo_matches_fresh_jacobian_on_network(p12, asym, snap, data):
    fluxes = None
    if asym:
        fluxes = {"r1": DAG, "r2": FAST, "r3": FAST, "r4": DAG, "r5": DAG, "r6": FAST}
    net = example(p12, fluxes)
    sys = net.system()
    # mostly the cells that the diverges and the merge read
    junction = [sys.cell_labels.index(c) for c in (
        "r1[3]", "r2[1]", "r4[1]", "r2[3]", "r3[1]", "x2[1]", "r4[3]", "r5[1]",
        "x4[1]", "r3[3]", "r5[3]", "r6[1]")]
    cells = st.one_of(st.sampled_from(junction), st.integers(0, sys.n_state - 1))
    states = data.draw(walks(sys.n_state, network_density, cells))
    if snap:
        by_road = {r.name: r.flux for r in net.roads}
        cell_flux = [by_road[label.split("[")[0]] for label in sys.cell_labels]
        states = [capacity_snapped(rho, cell_flux) for rho in states]
    assert_memo_exact(sys, states)


def test_one_regime_from_different_states():
    sys = example().system()
    # free flow everywhere, at different densities
    a = np.full(sys.n_state, 10.0)
    b = a + np.linspace(0.0, 1.0, sys.n_state)
    assert not np.array_equal(sys.rates(a), sys.rates(b))
    assert sys.kernel.regime(a) == sys.kernel.regime(b)
    J = sys.rate_jacobian(a)
    assert sys.rate_jacobian(b) is J
    assert J.tobytes() == fresh_jacobian(sys, b).tobytes()
    assert len(sys._jac_memo) == 1


# pairs of states (as {cell: density} on an empty example network) whose
# Jacobians differ in one kind of branch mask only; every candidate
# flow stays below capacity in both
MASK_PAIRS = {
    # the link r1[1->2] passes 800 < 1200 or 1200 < 1600
    "link-order": ({"r1[1]": 10.0, "r1[2]": 60.0}, {"r1[1]": 20.0, "r1[2]": 60.0}),
    # r1 demands 800 against r2's supply / p12 = 2400 or 600
    "diverge-active": ({"r1[3]": 10.0, "r2[1]": 60.0},
                       {"r1[3]": 10.0, "r2[1]": 105.0}),
    # demands 400 + 400 or 1000 + 1000 into a supply of 1600: each gets
    # its demand, or the median p R = 800 of (1000, 600, 800)
    "merge-free": ({"r3[3]": 5.0, "r5[3]": 5.0, "r6[1]": 40.0},
                   {"r3[3]": 12.5, "r5[3]": 12.5, "r6[1]": 40.0}),
    # r3 gets median(800, 400, 800), a tie, or median(600, 400, 800)
    "merge-median": ({"r3[3]": 10.0, "r5[3]": 15.0, "r6[1]": 40.0},
                     {"r3[3]": 7.5, "r5[3]": 15.0, "r6[1]": 40.0}),
}


@pytest.mark.parametrize("pair", MASK_PAIRS.values(), ids=MASK_PAIRS.keys())
def test_each_branch_mask_splits_regimes(pair):
    sys = example().system()
    a, b = (np.zeros(sys.n_state) for _ in range(2))
    for rho, cells in zip((a, b), pair):
        for cell, v in cells.items():
            rho[sys.cell_labels.index(cell)] = v
    assert not np.array_equal(fresh_jacobian(sys, a), fresh_jacobian(sys, b))
    assert sys.kernel.regime(a) != sys.kernel.regime(b)
    assert_memo_exact(sys, [a, b, a, b])
    assert len(sys._jac_memo) == 2


def test_memo_entries_are_read_only():
    sys = SegmentSpec.uniform(3, 0.5, DAG, 1200.0, 800.0).system()
    rho = np.array([10.0, 22.5, 60.0])
    J = sys.rate_jacobian(rho)
    with pytest.raises(ValueError, match="read-only"):
        J[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        J *= 2.0
    assert sys.rate_jacobian(rho).tobytes() == fresh_jacobian(sys, rho).tobytes()


def test_two_class_systems_have_no_memo():
    sys = SegmentSpec.uniform(2, 0.5, TC_REAL, (1000.0, 200.0), (2000.0, 500.0)).system()
    rho = np.array([20.0, 5.0, 40.0, 10.0])
    J1, J2 = sys.rate_jacobian(rho), sys.rate_jacobian(rho)
    assert J1 is not J2 and J1.flags.writeable
    np.testing.assert_array_equal(J1, J2)
    assert not hasattr(sys.kernel, "regime") and sys._jac_memo is None


# ---------------------------------------------------------------------------
# the flow cache: one candidate-flow evaluation per density vector


CACHED_CALLS = {
    "rates": lambda sys, rho: sys.rates(rho),
    "rate_jacobian": lambda sys, rho: sys.rate_jacobian(rho),
    "drift_jacobian": lambda sys, rho: sys.drift_jacobian(rho),
    "regime": lambda sys, rho: np.frombuffer(sys.kernel.regime(rho), dtype=np.uint8),
}


def assert_cache_exact(build, states, data):
    """`rates`, `rate_jacobian`, `drift_jacobian` and `regime`, called in
    a drawn order on one array changed in place from state to state (as
    `_rk4` clips rho), equal what a freshly built system returns for each
    state; every returned rates array is then overwritten."""
    sys, rho = build(), states[0].copy()
    for state in states:
        rho[:] = state
        for name in data.draw(st.lists(st.sampled_from(sorted(CACHED_CALLS)),
                                       min_size=1, max_size=5)):
            got = CACHED_CALLS[name](sys, rho)
            want = CACHED_CALLS[name](build(), state.copy())
            assert got.shape == want.shape and np.all(got == want), name
            if name == "rates":
                got[:] = np.nan


@SETTINGS
@given(st.integers(1, 6), bound, bound, st.data())
def test_flow_cache_matches_fresh_system_on_segments(d, lam, nu, data):
    states = data.draw(walks(d, segment_walk_density))
    assert_cache_exact(lambda: SegmentSpec.uniform(d, 0.5, DAG, lam, nu).system(),
                       states, data)


@SETTINGS
@given(st.sampled_from([0.25, 0.5, 0.75]), st.data())
def test_flow_cache_matches_fresh_system_on_network(p12, data):
    n = example().system().n_state
    states = data.draw(walks(n, network_density))
    assert_cache_exact(lambda: example(p12).system(), states, data)


# ---------------------------------------------------------------------------
# central differences away from kinks


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_two_class_jacobian_finite_differences(d, data):
    lam = data.draw(st.tuples(st.floats(100.0, 5000.0), st.floats(10.0, 2000.0)))
    nu = data.draw(st.tuples(st.floats(500.0, 9000.0), st.floats(50.0, 3000.0)))
    spec = SegmentSpec.uniform(d, 0.5, TC_REAL, lam, nu)
    rho = data.draw(two_class_state(d, TC_REAL, exact=False))
    rho = np.clip(rho, 1e-3, None) * (1 - 1e-4)  # keep rho +- h in the domain
    assert smooth_fd_check(spec.system(), rho, 1e-5) > 0.4


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(1.0, 119.0), min_size=22, max_size=22),
       st.floats(0.2, 0.8))
def test_network_jacobian_finite_differences(rho, p12):
    assert smooth_fd_check(example(p12).system(), np.array(rho), 1e-6) > 0.4


# ---------------------------------------------------------------------------
# typed errors


@pytest.mark.parametrize("flux", [TC_REAL, SimpleNamespace(m=1)])
def test_network_rejects_non_daganzo_roads(flux):
    with pytest.raises(NetworkConfigError, match="Daganzo"):
        NetworkSpec(roads=(RoadSpec("a", 2, 1.0, DAG), RoadSpec("b", 2, 1.0, flux)),
                    links=(("a", "b"),))
