"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (via the pytest -v status) for
its criterion and asserts both the numerical condition and, where one is
stated, the wall-time budget.
"""

import csv
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from gaussctm.cli import main, route_travel_time, control_travel_time
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassParams
from gaussctm.gaussian import cross_covariance, solve_fluid, solve_moments
from gaussctm.model import SegmentSpec
from gaussctm.simulator import (SimConfig, ensemble_moments,
                                estimate_throughput, simulate)
from gaussctm.stationary import (cell_marginal, deterministic_metric,
                                 stationary_fixed_point, stationary_metric)
from gaussctm.validation import chi2_normality, cumulative_pvalue_curve
from test_cli import (CONTROL_INI, NETWORK_INI, ROUTE_INI, THROUGHPUT_INI,
                      VALIDATE_INI)
from test_model import symmetric_network

F34 = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0,
                                q_max=1800.0))


def test_criterion_1_route_choice_moments():
    t0 = time.perf_counter()
    flux1 = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0,
                                      q_max=1500.0))
    mu, sd = route_travel_time(3, 1.0, flux1, 1400.0, 1500.0, 5.0,
                               400.0, 1001, 1e-3)
    t1 = time.perf_counter()
    assert t1 - t0 < 60.0
    assert abs(mu - 135.86) / 135.86 < 0.05, f"setting 1 mean {mu:.2f}"
    assert abs(sd - 13.87) / 13.87 < 0.05, f"setting 1 std {sd:.2f}"

    flux2 = DaganzoFlux(DaganzoParams(v_f=110.0, w=20.0, rho_max=108.0,
                                      q_max=1800.0))
    mu, sd = route_travel_time(3, 1.0, flux2, 1700.0, 1800.0, 5.0,
                               400.0, 1001, 1e-3)
    assert time.perf_counter() - t1 < 60.0
    assert abs(mu - 98.93) / 98.93 < 0.05, f"setting 2 mean {mu:.2f}"
    assert abs(sd - 10.56) / 10.56 < 0.05, f"setting 2 std {sd:.2f}"


def test_criterion_2_throughput_estimators():
    t0 = time.perf_counter()
    ell, d, nu = 11.0 / 108.0, 5, 1200.0
    p = F34.params
    lams = np.linspace(0.0, 2520.0, 10)
    kink = 1200.0  # exit bottleneck binds past nu
    gauss_err, det_err, rel_err = [], [], []
    streams = iter(np.random.SeedSequence(0).spawn(len(lams)))
    for lam in lams:
        spec = SegmentSpec.uniform(d, ell, F34, lam, nu)
        point = stationary_fixed_point(spec)
        marg = cell_marginal(point, 1)
        q0 = lambda x: min(lam, p.w * (p.rho_max - x), p.q_max)
        stoch = stationary_metric(q0, marg)
        det = deterministic_metric(q0, marg)
        est = []
        for child in next(streams).spawn(20):
            traj = simulate(spec, np.zeros(d, dtype=int),
                            SimConfig(horizon=12.0),
                            rng=np.random.default_rng(child))
            est.append(estimate_throughput(traj, 2.0, 12.0))
        sim = float(np.mean(est))
        gauss_err.append(abs(stoch - sim))
        det_err.append(abs(det - sim))
        if abs(lam - kink) > 200.0 and sim > 0:
            rel_err.append(abs(stoch - sim) / sim)
        elif sim == 0.0:
            rel_err.append(abs(stoch - sim))
    assert max(rel_err) < 0.10, f"max relative error {max(rel_err):.3f}"
    assert max(det_err) > max(gauss_err), (
        f"deterministic max error {max(det_err):.1f} should exceed "
        f"Gaussian max error {max(gauss_err):.1f}")
    assert time.perf_counter() - t0 < 600.0


def test_criterion_3_stationary_residuals():
    for lam in (800.0, 1400.0, 2520.0):
        spec = SegmentSpec.uniform(5, 11.0 / 108.0, F34, lam, 1200.0)
        fp = stationary_fixed_point(spec)
        assert fp.drift_residual < 1e-6
        assert fp.lyapunov_residual < 1e-6
    free = stationary_fixed_point(
        SegmentSpec.uniform(5, 11.0 / 108.0, F34, 800.0, 1200.0))
    np.testing.assert_allclose(free.mu, 800.0 / 80.0, atol=1e-4)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    spec = SegmentSpec.uniform(2, 1.0, F34, 800.0, 1800.0)
    sample_times = np.linspace(0.04, 0.2, 5)
    em = ensemble_moments(spec, [0, 0],
                          SimConfig(horizon=0.2, seed=123,
                                    replications=5000), sample_times)
    tl = solve_moments(spec, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
                       np.linspace(0.0, 0.2, 201), step=1e-3)
    for k, t in enumerate(sample_times):
        g = tl.index_of(round(t, 10))
        z = (tl.mean[g] - em.mean[k]) / em.mean_se[k]
        assert np.all(np.abs(z) < 3.0), f"t={t}: |z|={np.abs(z).max():.2f}"
        ratio = np.diag(tl.V[g]) / np.diag(em.cov[k])
        assert np.all((ratio > 0.85) & (ratio < 1.15)), (
            f"t={t}: variance ratios {ratio}")
    assert time.perf_counter() - t0 < 300.0


def test_criterion_5_moment_engine_numerics():
    # constant-coefficient scalar system: exact Ornstein-Uhlenbeck
    p = DaganzoParams(v_f=40.0, w=30.0, rho_max=50.0, q_max=1e9)
    rho_star = p.w * p.rho_max / (p.v_f + p.w)
    a = -(p.v_f + p.w)
    sig2 = 2.0 * p.v_f * p.w * p.rho_max / (p.v_f + p.w)
    spec = SegmentSpec.uniform(1, 1.0, DaganzoFlux(p), 1e9, 1e9)
    tl = solve_moments(spec, np.array([rho_star]), np.zeros(1),
                       np.zeros((1, 1)), np.linspace(0.0, 0.05, 501), step=1e-4)
    exact = sig2 / (2.0 * abs(a)) * (1.0 - np.exp(2.0 * a * tl.times))
    np.testing.assert_allclose(tl.V[:, 0, 0], exact, atol=1e-6)

    # grid-point identity Gamma(t, t) = V(t), exact
    for k in (0, 100, 499):
        t = tl.times[k]
        np.testing.assert_array_equal(cross_covariance(tl, t, t), tl.V[k])

    # symmetry and positive semidefiniteness on a nonlinear instance
    spec5 = SegmentSpec.uniform(5, 11.0 / 108.0, F34, 1400.0, 1200.0)
    tl5 = solve_moments(spec5, np.full(5, 10.0), np.zeros(5),
                        np.zeros((5, 5)), np.linspace(0.0, 0.5, 501), step=1e-3)
    for V in tl5.V[::50]:
        np.testing.assert_array_equal(V, V.T)
        assert np.linalg.eigvalsh(V).min() >= -1e-9 * max(np.trace(V), 1.0)

    # drift jacobian against finite differences away from kinks
    sys = spec5.system()
    rng = np.random.default_rng(0)
    h, checked = 1e-6, 0
    while checked < 40:
        rho = rng.uniform(1.0, 107.0, 5)
        vals = sorted([v for r in rho for v in
                       (80.0 * r, 16.0 * (108.0 - r))] + [1400.0, 1200.0, 1800.0])
        if any(b - a_ < 1.0 for a_, b in zip(vals, vals[1:])):
            continue
        J = sys.drift_jacobian(rho)
        fd = np.empty_like(J)
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            fd[:, k] = (sys.drift(rho + e) - sys.drift(rho - e)) / (2 * h)
        np.testing.assert_allclose(J, fd, atol=1e-4)
        checked += 1


def test_criterion_6_network_symmetry():
    net = symmetric_network()
    sys = net.system()
    grid = np.linspace(0.0, 1000.0 / 3600.0, 279)  # 278 steps of at most 1e-3 h
    tl = solve_moments(sys, np.zeros(34), np.zeros(34),
                       np.zeros((34, 34)), grid, step=1e-3)
    r2, r4 = tl.mean[:, 5:10], tl.mean[:, 15:20]
    r3, r5 = tl.mean[:, 10:15], tl.mean[:, 20:25]
    assert np.max(np.abs(r2 - r4)) < 1e-8
    assert np.max(np.abs(r3 - r5)) < 1e-8

    # conservation: cell-length weighted drift telescopes to boundary
    # rates exactly, so total mass tracks the integrated net inflow
    rng = np.random.default_rng(1)
    arr = [k for k in range(sys.n_trans) if sys.src[k] < 0]
    dep = [k for k in range(sys.n_trans) if sys.dst[k] < 0]
    for _ in range(20):
        rho = rng.uniform(0.0, 60.0, 34)
        q = sys.rates(rho)
        np.testing.assert_allclose(sys.lengths @ sys.drift(rho),
                                   q[arr].sum() - q[dep].sum(), atol=1e-9)
    times, rho_path = solve_fluid(sys, np.zeros(34), grid, step=1e-3)
    net_in = np.array([sys.rates(r)[arr].sum() - sys.rates(r)[dep].sum()
                       for r in rho_path])
    mass = rho_path @ sys.lengths
    assert abs(mass[-1] - np.trapezoid(net_in, times)) < 0.02

    # saturated merge with p36 = 0.5 splits the supply equally
    state = np.zeros(34)
    state[14] = state[24] = 40.0
    rates = dict(zip(sys.labels, sys.rates(state)))
    assert rates["r3->r6"] == rates["r5->r6"] > 0


def test_criterion_7_control_sweep_monotonicity():
    t0 = time.perf_counter()
    base = dict(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065, L2=0.0165,
                N=3, beta=0.25)
    d, ell, lam0, nu_frac = 10, 1.0, 1200.0, 2.0 / 3.0
    grid_args = (7200.0, 1001, 1e-3, 1e-3, 1e-9)

    def tt(params, lam, b):
        return control_travel_time(params, d, ell, lam, b, nu_frac,
                                   *grid_args)

    for b in (0.05, 0.1, 0.2):
        # mean travel time nonincreasing in free-flow speed
        prev = None
        for vf in (50.4, 67.5, 84.6, 101.7, 118.8):
            p = TwoClassParams(**{**base, "v_f1": vf,
                                  "v_f2": min(vf, base["v_f2"])})
            cur = [m for m, _ in tt(p, lam0, b)]
            if prev is not None:
                for j in range(2):
                    assert cur[j] <= prev[j] * (1.0 + 1e-9), (
                        f"b={b}, v_f={vf}, class {j + 1}: "
                        f"{prev[j]:.2f} -> {cur[j]:.2f}")
            prev = cur
        # nonincreasing in the number of lanes
        prev = None
        for n in (1, 2, 3, 4, 5):
            cur = [m for m, _ in tt(TwoClassParams(**{**base, "N": n}),
                                    lam0, b)]
            if prev is not None:
                for j in range(2):
                    assert cur[j] <= prev[j] * (1.0 + 1e-9), (
                        f"b={b}, N={n}, class {j + 1}")
            prev = cur
        # nondecreasing in the arrival rate, up to the small free-flow
        # smearing bias of the Gaussian tail (bounded by 3%)
        prev = None
        for lam in (1000.0, 1950.0, 2900.0, 3850.0, 4800.0):
            cur = [m for m, _ in tt(TwoClassParams(**base), lam, b)]
            if prev is not None:
                for j in range(2):
                    assert cur[j] >= prev[j] * (1.0 - 0.03), (
                        f"b={b}, lambda={lam}, class {j + 1}: "
                        f"{prev[j]:.2f} -> {cur[j]:.2f}")
            prev = cur
    assert time.perf_counter() - t0 < 900.0


def test_criterion_8_validation_calibration():
    # rejection rate at the 5% level on seeded normal streams
    rng = np.random.default_rng(0)
    pvals = np.array([chi2_normality(rng.normal(size=120)).p_value
                      for _ in range(2000)])
    reject = float(np.mean(pvals < 0.05))
    assert abs(reject - 0.05) <= 0.01, f"rejection rate {reject:.3f}"

    # a constructed sample with one decile holding twice the expected
    # count and one holding none: statistic exactly 20
    fixed = np.array([norm.ppf((b + (k + 0.5) / 10.0) / 10.0)
                      for b in range(2, 9) for k in range(10)])
    S, T = fixed.sum(), (fixed ** 2).sum()
    u = brentq(lambda u: 20 * u * u + 10 * ((-S - 20 * u) / 10) ** 2 + T - 100,
               -3.0, -1.3)
    v = (-S - 20.0 * u) / 10.0
    sample = np.concatenate([np.full(20, u), fixed, np.full(10, v)])
    res = chi2_normality(sample)
    assert res.statistic == pytest.approx(20.0, abs=1e-9)

    # cumulative p-value slope 0.5 +- 0.05 under the null over 420 slots
    rng = np.random.default_rng(42)
    results = [chi2_normality(rng.normal(1500.0, 120.0, 120))
               for _ in range(420)]
    for k, r in enumerate(results):
        r.slot = k + 1
    cum, _ = cumulative_pvalue_curve(results)
    slope = cum[-1] / 420.0
    assert abs(slope - 0.5) <= 0.05, f"null slope {slope:.3f}"


def test_criterion_9_cli_determinism(tmp_path):
    cases = (("throughput", THROUGHPUT_INI), ("route-choice", ROUTE_INI),
             ("control", CONTROL_INI), ("network", NETWORK_INI),
             ("validate", VALIDATE_INI))
    for command, ini in cases:
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(ini)
        outs = []
        for run_id in (1, 2):
            out = tmp_path / f"{command}-{run_id}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{command} output not deterministic"
        with open(tmp_path / f"{command}-1.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) > 1
