"""The benchmark's tracer (`perfbench/tracer.py`) wraps library names: each
must exist, traced calls record spans, and `uninstall` restores them.  The
traced model calls keep their meaning: one `rates` and one `rate_jacobian`
per RK4 stage, whatever the system memoizes behind them."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gaussctm
import gaussctm.cli
from gaussctm.cli import example_network
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from gaussctm.gaussian import solve_cumulative_moments
from gaussctm.model import SegmentSpec, TransitionSystem

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
DAG = DaganzoFlux(DaganzoParams(v_f=80.0, w=20.0, rho_max=108.0, q_max=1800.0))


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def symmetric_network():
    fluxes = {r: DAG for r in ("r1", "r2", "r3", "r4", "r5", "r6")}
    return example_network(5, 1.0, fluxes, 0.5, 0.75, 0.75, 0.5, 1800.0, 900.0)


def test_install_traces_and_uninstall_restores():
    module = load_tracer()
    owners = (gaussctm.cli, gaussctm.traveltime, gaussctm.model, TransitionSystem,
              DaganzoFlux, TwoClassFlux)
    saved = [dict(vars(o)) for o in owners]
    tracer = module.Tracer()
    tracer.install(gaussctm)
    try:
        f = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))
        assert f.flux([10.0], [0.0])[0] == 800.0
        assert SegmentSpec.uniform(2, 1.0, f, 800.0, 1800.0).system().rates(np.zeros(2))[0] == 800.0
        sp = tracer.spans()
    finally:
        tracer.uninstall()
    assert {"flux:DaganzoFlux.flux", "model:gaussctm.model.build_segment_system",
            "model:TransitionSystem.rates"} <= set(sp["names"][sp["name"]])
    for owner, before in zip(owners, saved):
        after = vars(owner)
        assert after.keys() == before.keys(), owner
        assert all(after[k] is v for k, v in before.items()), owner


def test_one_rates_and_one_rate_jacobian_call_per_rk4_stage():
    sys = symmetric_network().system()
    n = sys.n_state
    tracer = load_tracer().Tracer()
    tracer.install(gaussctm)
    try:
        # through the name the network study calls, which the tracer wraps
        tl = gaussctm.cli.solve_moments(sys, np.zeros(n), np.zeros((n, n)),
                                        np.linspace(0.0, 0.1, 11))
        sp = tracer.spans()
    finally:
        tracer.uninstall()
    called = sp["names"][sp["name"]]
    stages = 4 * sum(map(len, tl.substeps))
    assert stages == 400
    assert np.sum(called == "model:TransitionSystem.rates") == stages
    assert np.sum(called == "model:TransitionSystem.rate_jacobian") == stages
    # the solve's observer read the timeline it returned
    assert tracer.counters["gaussian.rk4_steps"] > 0
    assert tracer.counters["gaussian.stored_bytes"] >= tl.rho.nbytes + tl.V.nbytes


@pytest.mark.parametrize("t, rho0, exact", [(0.0, 10.0, True), (0.05, 15.0, False)],
                         ids=["exact", "rk4"])
def test_cumulative_observer_counts_the_travel_time_solve(t, rho0, exact,
                                                          monkeypatch):
    # from the fixed point at t = 0 the solve takes exact steps; from the
    # moments at t > 0 of a start off rest, RK4 steps.  `step` is
    # keyword-only, so the observer reads it from the keywords and never
    # a positional `weights` array
    exact_steps = []
    step = gaussctm.gaussian._exact_step
    monkeypatch.setattr(gaussctm.gaussian, "_exact_step",
                        lambda *a: (exact_steps.append(1), step(*a))[1])
    spec = SegmentSpec.uniform(3, 1.0, DAG, 800.0, 1800.0)
    grid = gaussctm.traveltime.default_grid(600.0, 201)
    tracer = load_tracer().Tracer()
    tracer.install(gaussctm)
    try:
        gaussctm.traveltime.travel_time_tail(spec, np.full(3, rho0), i=1, k=2,
                                             j=1, t=t, grid=grid,
                                             x0_cov=np.eye(3))
        sp = tracer.spans()
    finally:
        tracer.uninstall()
    assert bool(exact_steps) == exact
    called = sp["names"][sp["name"]]
    assert np.sum(called == "gaussian:gaussctm.traveltime.solve_cumulative_moments") == 1
    assert tracer.counters["gaussian.rk4_steps"] >= len(grid) - 1
    with pytest.raises(TypeError):
        solve_cumulative_moments(spec, np.full(3, rho0), grid / 3600.0, 1e-3)


def test_drift_jacobian_is_memoized_read_only_on_daganzo_networks():
    sys = symmetric_network().system()
    rho = np.linspace(0.0, 100.0, sys.n_state)
    J = sys.drift_jacobian(rho)
    assert not J.flags.writeable and sys.drift_jacobian(rho.copy()) is J
    assert np.array_equal(J, sys.LH @ sys.rate_jacobian(rho))


def test_drift_jacobian_is_fresh_on_two_class_segments():
    tc = TwoClassFlux(TwoClassParams(v_f1=108.0, v_f2=79.2, v_c=61.2, L1=0.0065,
                                     L2=0.0165, N=3, beta=0.25))
    sys = SegmentSpec.uniform(2, 0.5, tc, (1000.0, 200.0), (2000.0, 500.0)).system()
    rho = np.array([20.0, 5.0, 40.0, 10.0])
    J1, J2 = sys.drift_jacobian(rho), sys.drift_jacobian(rho)
    assert J1 is not J2 and J1.flags.writeable and J2.flags.writeable
    assert np.array_equal(J1, sys.LH @ sys.rate_jacobian(rho))
    assert np.array_equal(J1, J2)
