"""Layer tracing from outside the program.

`Tracer.install` replaces each layer's public functions where their
callers look them up (module globals of the calling module, or the
class for methods) with a wrapper that records a span: name, start,
end and the enclosing span.  Spans are kept in flat arrays in memory
and written out when the benchmark ends.  A layer's self time is the
duration of its spans minus the part their child spans cover.

Besides spans, a few wrappers read counters off the values the layer
returns (fixed-point iterations, RK4 steps, simulator events, bytes of
stored arrays) and fingerprint the arguments of solver calls, so that a
call whose inputs equal, value for value, those of an earlier call in
the same round counts as a repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
import weakref
from array import array

import numpy as np

LAYERS = ("cli", "stationary", "gaussian", "traveltime", "model", "flux",
          "simulator")
_LAYER_ID = {name: k for k, name in enumerate(LAYERS)}

_FLUX_METHODS = ("demand", "demand_grad", "flux", "flux_grad", "inflow",
                 "inflow_grad", "outflow", "outflow_grad")
_DAGANZO_SCALARS = ("sending_scalar", "sending_grad_scalar",
                    "receiving_scalar", "receiving_grad_scalar")
_MARGINAL = ("cell_marginal", "stationary_metric", "deterministic_metric")
_UNITS = {"us_per_step": "us", "us_per_event": "us", "rates_us": "us",
          "jacobian_us": "us", "stored_mb": "MB", "overhead_pct": "%"}


def unit(name):
    """Unit of a per-layer metric: seconds for `*_s`, counts otherwise
    unless listed."""
    key = name.split(".", 1)[1]
    return _UNITS.get(key, "s" if key.endswith("_s") else "count")


def _nbytes(*arrays):
    return sum(np.asarray(a).nbytes for a in arrays)


def _cumulative_steps(times_h, step):
    """RK4 substeps of solve_cumulative_moments over a relative grid:
    each grid interval is cut into ceil(span / step) equal substeps."""
    spans = np.diff(np.asarray(times_h, dtype=float))
    return int(sum(max(1, math.ceil(s / step - 1e-12)) for s in spans))


class Tracer:
    def __init__(self):
        self._undo = []
        self._names = []
        self._name_id = {}
        self._systems = weakref.WeakKeyDictionary()  # system -> spec fingerprint
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Start a new round: drop spans, counters and fingerprints."""
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(
            ("stationary.iterations", "stationary.repeat_calls",
             "gaussian.rk4_steps", "gaussian.stored_bytes",
             "gaussian.repeat_calls", "simulator.events",
             "simulator.stored_bytes"), 0)
        self._seen = set()

    def _wrap(self, owner, attr, layer, observe=None):
        fn = getattr(owner, attr)
        label = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
        nid = self._name_id.setdefault(label, len(self._names))
        if nid == len(self._names):
            self._names.append(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            s = self._stack
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(s[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            s.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                s.pop()
                self.start[i] = t0
                self.end[i] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- fingerprints ------------------------------------------------------

    def _fp(self, x):
        if isinstance(x, np.ndarray):
            return ("nd", x.shape, x.dtype.str,
                    hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest())
        if isinstance(x, (int, float, str, bool, type(None))):
            return repr(x)
        if isinstance(x, (tuple, list)):
            return tuple(self._fp(v) for v in x)
        if isinstance(x, dict):
            return tuple(sorted((k, self._fp(v)) for k, v in x.items()))
        if dataclasses.is_dataclass(x):
            return (type(x).__name__,) + tuple(
                self._fp(getattr(x, f.name)) for f in dataclasses.fields(x))
        if hasattr(x, "params") and dataclasses.is_dataclass(x.params):
            return (type(x).__name__, self._fp(x.params))  # a flux function
        try:
            known = self._systems.get(x)
        except TypeError:
            known = None
        if known is not None:
            return ("system", known)
        return ("object", type(x).__name__, id(x))

    def _repeat(self, counter, fn_name, args, kwargs):
        key = (fn_name, self._fp(args), self._fp(kwargs))
        if key in self._seen:
            self.counters[counter] += 1
        self._seen.add(key)

    # -- installation ------------------------------------------------------

    def install(self, gaussctm):
        """Wrap the public functions of every measured layer.
        `routechoice` (microseconds of arithmetic) and `validation` (on no
        workload) are left out."""
        cli = gaussctm.cli
        model = gaussctm.model

        self._wrap(cli, "main", "cli")

        def fixed_point(args, kwargs, result):
            self.counters["stationary.iterations"] += result.iterations
            self._repeat("stationary.repeat_calls", "fixed_point", args, kwargs)
        self._wrap(cli, "stationary_fixed_point", "stationary", fixed_point)
        for name in _MARGINAL:
            self._wrap(cli, name, "stationary")

        def moments(args, kwargs, tl):
            self.counters["gaussian.rk4_steps"] += len(tl.times) - 1
            self.counters["gaussian.stored_bytes"] += _nbytes(tl.times, tl.rho, tl.M,
                                                    tl.V, tl.phi)
            self._repeat("gaussian.repeat_calls", "moments", args, kwargs)

        def cumulative(args, kwargs, cum):
            step = kwargs.get("step", args[4] if len(args) > 4 else 1e-3)
            self.counters["gaussian.rk4_steps"] += _cumulative_steps(cum.times, step)
            self.counters["gaussian.stored_bytes"] += _nbytes(
                cum.times, cum.x0_mean, cum.y_mean, cum.cov, *cum.props)
            self._repeat("gaussian.repeat_calls", "cumulative", args, kwargs)
        self._wrap(cli, "solve_moments", "gaussian", moments)
        self._wrap(gaussctm.traveltime, "solve_moments", "gaussian", moments)
        self._wrap(gaussctm.traveltime, "solve_cumulative_moments", "gaussian",
                   cumulative)

        for name in ("travel_time_tail", "travel_time_moments", "default_grid"):
            self._wrap(cli, name, "traveltime")

        def built(args, kwargs, system):
            self._systems[system] = self._fp(args[0])
        for name in ("build_segment_system", "build_network_system"):
            self._wrap(model, name, "model", built)
        self._wrap(model.TransitionSystem, "rates", "model")
        self._wrap(model.TransitionSystem, "rate_jacobian", "model")

        for name in _FLUX_METHODS:
            self._wrap(gaussctm.flux.DaganzoFlux, name, "flux")
            self._wrap(gaussctm.flux.TwoClassFlux, name, "flux")
        for name in _DAGANZO_SCALARS:
            self._wrap(gaussctm.flux.DaganzoFlux, name, "flux")

        def simulated(args, kwargs, traj):
            self.counters["simulator.events"] += traj.n_events
            self.counters["simulator.stored_bytes"] += _nbytes(
                traj.times, traj.counts, traj.trans, traj.arrival_rate,
                traj.departure_rate)
        self._wrap(cli, "simulate", "simulator", simulated)
        self._wrap(cli, "estimate_throughput", "simulator")

    # -- analysis ----------------------------------------------------------

    def spans(self):
        """The round's spans as arrays, times relative to its first span."""
        start = np.frombuffer(self.start, dtype=float).copy()
        t0 = start.min() if len(start) else 0.0
        return {"names": np.array(self._names),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start": start - t0,
                "end": np.frombuffer(self.end, dtype=float).copy() - t0}

    def metrics(self, sp, wall_s, rows):
        """Per-layer metrics of a round from its spans (see `spans`)."""
        labels = sp["names"]
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        layer_of_name = np.array([_LAYER_ID[l.split(":")[0]] for l in labels],
                                 dtype=int)
        layer = layer_of_name[name] if n else np.zeros(0, dtype=int)
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        entry = layer != parent_layer  # a call into the layer from outside it
        short = np.array([l.split(".")[-1] for l in labels])
        fn = short[name] if n else np.zeros(0, dtype=str)

        def per(layer_name, values, mask=None):
            sel = layer == _LAYER_ID[layer_name]
            if mask is not None:
                sel &= mask
            return float(values[sel].sum())

        def count(mask):
            return int(mask.sum())

        ones = np.ones(n)
        cnt = self.counters
        build = np.isin(fn, ("build_segment_system", "build_network_system"))
        sims = fn == "simulate"
        steps = cnt["gaussian.rk4_steps"]
        events = cnt["simulator.events"]
        m = {
            "cli.self_s": per("cli", self_t),
            "cli.rows": rows,
            "stationary.calls": int(per("stationary", ones, entry)),
            "stationary.self_s": per("stationary", self_t),
            "stationary.iterations": cnt["stationary.iterations"],
            "stationary.repeat_calls": cnt["stationary.repeat_calls"],
            "stationary.marginal_s": per("stationary", dur,
                                         entry & np.isin(fn, _MARGINAL)),
            "gaussian.calls": int(per("gaussian", ones, entry)),
            "gaussian.self_s": per("gaussian", self_t),
            "gaussian.rk4_steps": steps,
            "gaussian.us_per_step": (per("gaussian", dur, entry) / steps * 1e6
                                     if steps else 0.0),
            "gaussian.stored_mb": cnt["gaussian.stored_bytes"] / 2**20,
            "gaussian.repeat_calls": cnt["gaussian.repeat_calls"],
            "traveltime.calls": int(per("traveltime", ones, entry)),
            "traveltime.self_s": per("traveltime", self_t),
            "model.self_s": per("model", self_t),
            "model.system_builds": count(build),
            "model.system_build_s": float(dur[build].sum()),
        }
        for key, fname in (("rates", "rates"), ("jacobian", "rate_jacobian")):
            sel = fn == fname
            m[f"model.{key}_calls"] = count(sel)
            m[f"model.{key}_us"] = (float(dur[sel].mean()) * 1e6
                                    if sel.any() else 0.0)
        m.update({
            "flux.calls": int(per("flux", ones, entry)),
            "flux.self_s": per("flux", self_t),
            "simulator.runs": count(sims),
            "simulator.events": events,
            "simulator.us_per_event": (float(dur[sims].sum()) / events * 1e6
                                       if events else 0.0),
            "simulator.self_s": per("simulator", self_t),
            "simulator.stored_mb": cnt["simulator.stored_bytes"] / 2**20,
        })
        m["trace.wall_s"] = wall_s
        m["trace.unattributed_s"] = wall_s - sum(
            per(lay, self_t) for lay in LAYERS)
        return m
