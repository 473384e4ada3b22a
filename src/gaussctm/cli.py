"""Experiment runner: named commands reproducing each study at desk
scale, driven by flat INI configuration files, emitting CSV.

Commands: throughput, route-choice, control, network, validate.  Every
command is deterministic given config + seed; keys carry units in
their names (e.g. lambda_veh_per_h).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from datetime import datetime, timedelta
from fractions import Fraction

import numpy as np

from .flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from .gaussian import solve_moments
from .model import Diverge, Merge, NetworkSpec, RoadSpec, SegmentSpec
from .routechoice import RouteSummary, select_route
from .simulator import estimate_throughput, simulate
from .stationary import (cell_marginal, deterministic_metric,
                         stationary_fixed_point, stationary_metric)
from .traveltime import default_grid, travel_time_moments, travel_time_tail
from . import validation

__all__ = ["main", "run_throughput_sweep", "run_route_choice",
           "run_control_sweep", "run_network", "run_validation",
           "example_network"]


def _num(s):
    s = s.strip()
    if "/" in s:
        return float(Fraction(s))
    return float(s)


def _nums(s):
    return [_num(x) for x in s.split(",") if x.strip()]


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])


def _daganzo(sec, prefix=""):
    return DaganzoFlux(DaganzoParams(
        v_f=_num(sec[prefix + "v_f_km_per_h"]),
        w=_num(sec["w_km_per_h"]),
        rho_max=_num(sec["rho_max_veh_per_km"]),
        q_max=_num(sec["q_max_veh_per_h"]),
    ))


# ---------------------------------------------------------------------------
# throughput


def run_throughput_sweep(cfg, out, seed, dry_run=False):
    flux = _daganzo(cfg["flux"])
    p = flux.params
    d = int(cfg["segment"]["d"])
    nu = _num(cfg["segment"]["nu_veh_per_h"])
    lengths = _nums(cfg["sweep"]["cell_lengths_km"])
    lams = np.linspace(_num(cfg["sweep"]["lambda_min_veh_per_h"]),
                       _num(cfg["sweep"]["lambda_max_veh_per_h"]),
                       int(cfg["sweep"]["lambda_points"]))
    sim = cfg["simulation"]
    horizon = _num(sim["horizon_h"])
    warmup = _num(sim["warmup_h"])
    reps = int(sim["replications"])
    if reps < 1:
        raise ValueError("[simulation] replications must be at least 1")
    dt = _num(cfg["solver"]["fixed_point_dt_h"])
    tol = _num(cfg["solver"]["fixed_point_tol"])
    if dry_run:
        print(f"throughput: {len(lengths)} cell lengths x {len(lams)} lambdas, "
              f"{reps} replications of {horizon} h (warm-up {warmup} h) -> {out}")
        return
    streams = iter(np.random.SeedSequence(seed).spawn(len(lengths) * len(lams)))
    rows = []
    for ell in lengths:
        for lam in lams:
            system = SegmentSpec.uniform(d, ell, flux, lam, nu).system()
            point = stationary_fixed_point(system, dt=dt, tol=tol)
            marg = cell_marginal(point, 1)
            q0 = lambda x: min(lam, p.w * (p.rho_max - x), p.q_max)
            stoch = stationary_metric(q0, marg)
            det = deterministic_metric(q0, marg)
            ss = next(streams)
            est = []
            for child in ss.spawn(reps):
                traj = simulate(system, np.zeros(d, dtype=int),
                                warmup + horizon, child)
                est.append(estimate_throughput(traj, warmup, warmup + horizon))
            rows.append((ell, lam, stoch, det, float(np.mean(est))))
    _write_csv(out, ("cell_length_km", "lambda_veh_per_h",
                     "stochastic_veh_per_h", "deterministic_veh_per_h",
                     "simulated_veh_per_h"), rows)


# ---------------------------------------------------------------------------
# route choice


def route_travel_time(d, cell_length, flux, lam, nu, divisor, x_max_s,
                      points, step, point=None):
    """(mean, std) in seconds of the end-to-end travel time, starting
    from the stationary mean with covariance diag(mean)/divisor.  The
    stationary `point` of the route is solved unless given."""
    spec = SegmentSpec.uniform(d, cell_length, flux, lam, nu)
    if point is None:
        point = stationary_fixed_point(spec)
    cov0 = np.diag(point.mu / divisor)
    curve = travel_time_tail(spec, point.mu, i=1, k=d - 1, j=1, t=0.0,
                             grid=default_grid(x_max_s, points),
                             x0_cov=cov0, step=step)
    return travel_time_moments(curve)


def run_route_choice(cfg, out, seed, dry_run=False):
    init = cfg["init"]
    divisors1 = _nums(init["route1_divisors"])
    divisor2 = _num(init["route2_divisor"])
    grid = cfg["grid"]
    x_max, points = _num(grid["x_max_s"]), int(grid["points"])
    c_values = _nums(grid["c_values"])
    step = _num(cfg["solver"]["step_h"])
    settings = [s for s in cfg.sections() if s.startswith("setting")]
    if dry_run:
        print(f"route-choice: settings {settings}, route-1 divisors "
              f"{divisors1}, c grid {c_values} -> {out}")
        return
    rows = []
    for name in settings:
        sec = cfg[name]
        d = int(sec["d"])
        ell = _num(sec["cell_length_km"])
        lam, nu = _num(sec["lambda_veh_per_h"]), _num(sec["nu_veh_per_h"])
        flux1 = _daganzo(sec, prefix="route1_")
        flux2 = _daganzo(sec, prefix="route2_")
        mu2, sd2 = route_travel_time(d, ell, flux2, lam, nu, divisor2,
                                     x_max, points, step)
        point1 = stationary_fixed_point(SegmentSpec.uniform(d, ell, flux1,
                                                            lam, nu))
        for div in divisors1:
            b1 = f"{Fraction(1 / div).limit_denominator(100)}"
            mu1, sd1 = route_travel_time(d, ell, flux1, lam, nu, div,
                                         x_max, points, step, point1)
            rows.append(("moments", name, b1, 1, "", mu1, sd1, ""))
            rows.append(("moments", name, b1, 2, "", mu2, sd2, ""))
            routes = [RouteSummary(1, mu1, sd1), RouteSummary(2, mu2, sd2)]
            for c in c_values:
                rows.append(("selection", name, b1, "", c, "", "",
                             select_route(routes, c)))
    _write_csv(out, ("kind", "setting", "b1", "route", "c", "mu_s",
                     "sigma_s", "selected_route"), rows)


# ---------------------------------------------------------------------------
# control


def control_travel_time(params: TwoClassParams, d, cell_length, lam, b,
                        nu_fraction, x_max_s, points, step, fp_dt, fp_tol):
    """Per-class (mean, std) travel time over the whole segment from
    the stationary mean; departures capped at nu_fraction times each
    class's maximal flow at the given traffic mix."""
    flux = TwoClassFlux(params)
    cap = params.v_c * params.beta * params.N  # occupancy capacity
    # class shares of a saturated boundary at the arrival mix
    g1 = (1 - b) * params.L1 * params.v_f1
    g2 = b * params.L2 * params.v_f2
    s1, s2 = g1 / (g1 + g2), g2 / (g1 + g2)
    nu = (nu_fraction * s1 * cap / params.L1,
          nu_fraction * s2 * cap / params.L2)
    lam_pair = ((1 - b) * lam, b * lam)
    spec = SegmentSpec(d, (cell_length,) * d, flux, lam_pair, nu)
    point = stationary_fixed_point(spec, dt=fp_dt, tol=fp_tol)
    curves = travel_time_tail(spec, point.mu, i=1, k=d - 1, j=(1, 2), t=0.0,
                              grid=default_grid(x_max_s, points), step=step)
    return [travel_time_moments(c) for c in curves]


def run_control_sweep(cfg, out, seed, dry_run=False):
    fx = cfg["flux"]
    base = dict(
        v_f1=_num(fx["v_f_car_km_per_h"]), v_f2=_num(fx["v_f_truck_km_per_h"]),
        v_c=_num(fx["v_c_km_per_h"]), L1=_num(fx["L_car_km"]),
        L2=_num(fx["L_truck_km"]), N=int(fx["n_lanes"]), beta=_num(fx["beta"]))
    seg = cfg["segment"]
    d, ell = int(seg["d"]), _num(seg["cell_length_km"])
    lam0, b0 = _num(seg["lambda_veh_per_h"]), _num(seg["truck_fraction"])
    nu_frac = _num(seg["nu_capacity_fraction"])
    sw = cfg["sweeps"]
    vfs = _nums(sw["v_f_values_km_per_h"])
    ns = [int(x) for x in _nums(sw["n_lanes_values"])]
    lams = _nums(sw["lambda_values_veh_per_h"])
    bs = _nums(sw["truck_fractions"])
    gr = cfg["grid"]
    x_max, points = _num(gr["x_max_s"]), int(gr["points"])
    sv = cfg["solver"]
    step = _num(sv["step_h"])
    fp_dt, fp_tol = _num(sv["fixed_point_dt_h"]), _num(sv["fixed_point_tol"])
    if dry_run:
        print(f"control: sweeps v_f x{len(vfs)}, N x{len(ns)}, "
              f"lambda x{len(lams)}, each at b in {bs} -> {out}")
        return

    def point_rows(sweep, value, params, lam, b):
        moments = control_travel_time(params, d, ell, lam, b, nu_frac,
                                      x_max, points, step, fp_dt, fp_tol)
        return [(sweep, value, b, j + 1, m, s)
                for j, (m, s) in enumerate(moments)]

    rows = []
    for b in bs:
        for vf in vfs:
            p = TwoClassParams(**{**base, "v_f1": vf,
                                  "v_f2": min(vf, base["v_f2"])})
            rows.extend(point_rows("v_f", vf, p, lam0, b))
        for n in ns:
            rows.extend(point_rows("N", n,
                                   TwoClassParams(**{**base, "N": n}), lam0, b))
        for lam in lams:
            rows.extend(point_rows("lambda", lam,
                                   TwoClassParams(**base), lam, b))
    _write_csv(out, ("sweep", "value", "truck_fraction", "class",
                     "mean_s", "std_s"), rows)


# ---------------------------------------------------------------------------
# network


def example_network(d, cell_length, flux_by_road, p12, p23, p45, p36,
                    lam, nu) -> NetworkSpec:
    """Six-road diverge/merge example: r1 splits into r2/r4, which each
    split into (r3, exit) and (r5, exit); r3 and r5 merge into r6.
    Padding cells isolate arrivals and departures from junctions."""
    f = flux_by_road
    roads = [RoadSpec(r, d, cell_length, f[r]) for r in
             ("r1", "r2", "r3", "r4", "r5", "r6")]
    roads += [RoadSpec("p0", 1, cell_length, f["r1"]),
              RoadSpec("x2", 1, cell_length, f["r2"]),
              RoadSpec("x4", 1, cell_length, f["r4"]),
              RoadSpec("x6", 1, cell_length, f["r6"])]
    return NetworkSpec(
        roads=tuple(roads),
        links=(("p0", "r1"), ("r6", "x6")),
        diverges=(
            Diverge("r1", (("r2", p12), ("r4", 1 - p12))),
            Diverge("r2", (("r3", p23), ("x2", 1 - p23))),
            Diverge("r4", (("r5", p45), ("x4", 1 - p45))),
        ),
        merges=(Merge((("r3", p36), ("r5", 1 - p36)), "r6"),),
        arrivals=(("p0", lam),),
        departures=(("x2", nu), ("x4", nu), ("x6", nu)),
    )


def run_network(cfg, out, seed, dry_run=False):
    net_sec = cfg["network"]
    d = int(net_sec["d"])
    ell = _num(net_sec["cell_length_km"])
    base_flux = _daganzo(net_sec)
    lam, nu = _num(net_sec["lambda_veh_per_h"]), _num(net_sec["nu_veh_per_h"])
    p23, p45, p36 = (_num(net_sec[k]) for k in ("p23", "p45", "p36"))
    horizon_s = _num(net_sec["horizon_s"])
    step = _num(cfg["solver"]["step_h"])
    every = _num(cfg["output"]["sample_every_s"])
    variant = net_sec.get("variant", "symmetric")
    if variant == "symmetric":
        cases = [(_num(net_sec["p12"]), {r: base_flux for r in
                                         ("r1", "r2", "r3", "r4", "r5", "r6")})]
    else:
        asym = cfg["asymmetric"]
        fast = _daganzo({**dict(net_sec), "v_f_km_per_h":
                         asym["v_f_r2_r3_km_per_h"]})
        slow = _daganzo({**dict(net_sec), "v_f_km_per_h":
                         asym["v_f_r4_r5_km_per_h"]})
        fluxes = {"r1": base_flux, "r2": fast, "r3": fast,
                  "r4": slow, "r5": slow, "r6": base_flux}
        cases = [(p12, fluxes) for p12 in _nums(asym["p12_values"])]
    if dry_run:
        print(f"network ({variant}): {len(cases)} case(s), horizon "
              f"{horizon_s} s sampled every {every} s -> {out}")
        return
    samples_s = np.arange(0.0, horizon_s + 1e-9, every)
    rows = []
    for p12, fluxes in cases:
        net = example_network(d, ell, fluxes, p12, p23, p45, p36, lam, nu)
        sys_ = net.system()
        n = sys_.n_state
        tl = solve_moments(sys_, np.zeros(n), np.zeros((n, n)),
                           samples_s / 3600.0, step)
        for k, t_s in enumerate(samples_s):
            sd = np.sqrt(np.maximum(np.diag(tl.V[k]), 0.0))
            for c in range(n):
                rows.append((p12, t_s, sys_.cell_labels[c],
                             tl.rho[k][c], sd[c]))
    _write_csv(out, ("p12", "time_s", "cell", "mean_veh_per_km",
                     "std_veh_per_km"), rows)


# ---------------------------------------------------------------------------
# validation


def synthetic_series(sites, days, mean, std, seed, start="2018-06-04"):
    """Per-minute normal flows in the 4-11 am window for `days`
    consecutive days, one independent stream per site."""
    start_day = datetime.fromisoformat(start)
    streams = np.random.SeedSequence(seed).spawn(len(sites))
    out = {}
    for site, ss in zip(sites, streams):
        rng = np.random.default_rng(ss)
        times, flows = [], []
        for day in range(days):
            base = start_day + timedelta(days=day)
            vals = rng.normal(mean, std, 420)
            for minute, v in enumerate(vals):
                times.append(base + timedelta(minutes=240 + minute))
                flows.append(v)
        out[site] = validation.FlowSeries(site, times, np.asarray(flows))
    return out


def run_validation(cfg, out, seed, dry_run=False):
    inp = cfg["input"]
    taus = [int(x) for x in _nums(cfg["test"]["taus"])]
    do_pairs = cfg["test"].getboolean("pairs", fallback=False)
    if dry_run:
        src = inp.get("csv_path", "") or "synthetic"
        print(f"validate: input {src}, taus {taus}, pairs={do_pairs} -> {out}")
        return
    if inp.get("csv_path", ""):
        series, report = validation.ingest(inp["csv_path"])
        print(f"ingested {report.rows} rows, skipped {report.skipped}")
    else:
        series = synthetic_series(
            [s.strip() for s in inp["sites"].split(",")],
            int(inp["synthetic_days"]), _num(inp["mean_veh_per_h"]),
            _num(inp["std_veh_per_h"]), seed)
    rows = []
    sites = sorted(series)
    for tau in taus:
        groups = []
        for site in sites:
            samples = validation.slot_samples(series[site], tau)
            groups.append(("univariate", site,
                           [validation.chi2_normality(s) for s in samples]))
        if do_pairs and len(sites) >= 2:
            a = validation.slot_samples(series[sites[0]], tau)
            b = validation.slot_samples(series[sites[1]], tau)
            pair_name = f"{sites[0]}+{sites[1]}"
            per_label = {}
            for sa, sb in zip(a, b):
                for r in validation.linear_combination_tests(sa, sb, tau):
                    per_label.setdefault(r.label, []).append(r)
            for label, results in per_label.items():
                groups.append((label, pair_name, results))
        for label, name, results in groups:
            cum, _ = validation.cumulative_pvalue_curve(results)
            for r, c in zip(results, cum):
                rows.append((name, tau, r.slot, label,
                             r.statistic, r.p_value, c, r.size))
    _write_csv(out, ("series", "tau", "slot", "label", "statistic",
                     "p_value", "cumulative_p", "size"), rows)


# ---------------------------------------------------------------------------


_COMMANDS = {
    "throughput": run_throughput_sweep,
    "route-choice": run_route_choice,
    "control": run_control_sweep,
    "network": run_network,
    "validate": run_validation,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gaussctm",
        description="Gaussian-approximation traffic model experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    cfg = configparser.ConfigParser()
    if not cfg.read(args.config):
        parser.error(f"cannot read config {args.config}")
    _COMMANDS[args.command](cfg, args.out, args.seed, dry_run=args.dry_run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
