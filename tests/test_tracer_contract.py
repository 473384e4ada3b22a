"""The benchmark's tracer (`perfbench/tracer.py`) wraps library names: each
must exist, traced calls record spans, and `uninstall` restores them."""

import importlib.util
from pathlib import Path

import numpy as np

import gaussctm
import gaussctm.cli
from gaussctm.flux import DaganzoFlux, DaganzoParams, TwoClassFlux, discrete_flux
from gaussctm.model import SegmentSpec, TransitionSystem

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_install_traces_and_uninstall_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    owners = (gaussctm.cli, gaussctm.traveltime, gaussctm.model, TransitionSystem,
              DaganzoFlux, TwoClassFlux)
    saved = [dict(vars(o)) for o in owners]
    tracer = module.Tracer()
    tracer.install(gaussctm)
    try:
        f = DaganzoFlux(DaganzoParams(v_f=80.0, w=16.0, rho_max=108.0, q_max=1800.0))
        assert discrete_flux(10.0, 0.0, f)[0] == 800.0
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
