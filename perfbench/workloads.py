"""The benchmark's workloads: the CLI studies each one runs, the inputs
it derives from the bundled `configs/` and the seed, and how its CSVs
are checked.

Every workload function returns its studies and a check.  A study is
one `gaussctm` CLI command on one derived INI file, writing one CSV.
The check maps each study point (one sweep value of one study) to the
reasons it is wrong, empty if it passed; each point is one attempted
operation.  One round runs every study of the workload once, and a run
repeats whole rounds.

The seed draws only inputs that leave the amount of work unchanged
(simulator random streams, risk weights, routing splits), so runs with
different seeds measure the same work.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks

THROUGHPUT_REPLICATIONS = 6


@dataclass
class Study:
    name: str
    command: str
    config: Path
    out: Path
    cfg: configparser.ConfigParser = field(repr=False)
    seed: int = 0  # the CLI's --seed; only the simulator reads it

    def argv(self):
        return [self.command, "--config", str(self.config),
                "--out", str(self.out), "--seed", str(self.seed)]


def _load(path):
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise FileNotFoundError(f"cannot read config {path}")
    return cfg


def _derive(src, dst, overrides):
    """Copy an INI file with some keys replaced; returns the parsed copy."""
    cfg = _load(src)
    for section, values in overrides.items():
        if not cfg.has_section(section):
            cfg.add_section(section)
        for key, value in values.items():
            cfg[section][key] = str(value)
    with open(dst, "w") as fh:
        cfg.write(fh)
    return _load(dst)


def _study(name, command, src, outdir, overrides):
    config = outdir / f"{name}.ini"
    cfg = _derive(src, config, overrides)
    return Study(name, command, config, outdir / f"{name}.csv", cfg)


# ---------------------------------------------------------------------------
# throughput: the exact simulator over the whole arrival-rate sweep


def throughput(configs, outdir, seed, quick=False):
    """The shortest cells of configs/throughput.ini (where the Gaussian
    and deterministic estimates differ most) over the full lambda sweep.
    The replications run as separate studies of one replication each,
    seeded from the benchmark seed, so that the check can estimate the
    simulated mean's standard error from them."""
    src = configs / "throughput.ini"
    shortest = min(_load(src)["sweep"]["cell_lengths_km"].split(","),
                   key=checks.num).strip()
    base = _study("throughput", "throughput", src, outdir, {
        "sweep": {"cell_lengths_km": shortest},
        "simulation": {"horizon_h": "1.5", "warmup_h": "0.5",
                       "replications": "1"}})
    studies = [
        replace(base, name=f"throughput_rep{k}",
                out=outdir / f"throughput_rep{k}.csv",
                seed=seed * THROUGHPUT_REPLICATIONS + k)
        for k in range(THROUGHPUT_REPLICATIONS)]
    return studies, lambda: checks.check_throughput(
        [s.out for s in studies], studies[0].cfg)


# ---------------------------------------------------------------------------
# traveltime: cumulative-moment solves for route choice and two-class control


def traveltime(configs, outdir, seed, quick=False):
    """All of configs/route_choice.ini, with seeded risk weights, plus the
    least and the most loaded lambda point of configs/control.ini at its
    base truck fraction: free-flowing and congested (spill-back from the
    exit bottleneck).  Each control grid spans its travel-time tail at
    one RK4 step per grid interval (step_h = 1 ms = 3.6 s)."""
    rng = random.Random(seed)
    c_values = set()
    while len(c_values) < 7:
        c_values.add(round(rng.uniform(0.0, 3.0), 2))
    c_values = sorted(c_values)
    route = _study("route_choice", "route-choice",
                   configs / "route_choice.ini", outdir,
                   {"grid": {"c_values": ", ".join(f"{c:g}" for c in c_values)}})
    src = configs / "control.ini"
    base = _load(src)
    lams = checks.nums(base["sweeps"]["lambda_values_veh_per_h"])
    b = base["segment"]["truck_fraction"]

    def control(name, lam, x_max_s, points):
        return _study(name, "control", src, outdir, {
            "sweeps": {"v_f_values_km_per_h": "", "n_lanes_values": "",
                       "lambda_values_veh_per_h": f"{lam:g}",
                       "truck_fractions": b},
            "grid": {"x_max_s": f"{x_max_s:g}", "points": str(points)}})

    free = control("control_free", min(lams), 1800, 501)
    jam = control("control_congested", max(lams), 4320, 1201)
    studies = [route, free, jam]

    def check():
        out = {("route",) + k: v for k, v in
               checks.check_route_choice(route.out, route.cfg).items()}
        out.update(checks.check_control_pair(free.out, free.cfg,
                                             jam.out, jam.cfg))
        return out
    return studies, check


# ---------------------------------------------------------------------------
# network: solve_moments with full storage on the 34-cell network


def network(configs, outdir, seed, quick=False):
    """configs/network_asymmetric.ini with three seeded routing splits,
    plus configs/network_symmetric.ini as one more case."""
    rng = random.Random(seed)
    splits = set()
    while len(splits) < 3:
        splits.add(round(rng.uniform(0.2, 0.8), 3))
    asym_over = {"asymmetric": {"p12_values": ", ".join(
        f"{p:g}" for p in sorted(splits))}}
    if quick:
        asym_over["network"] = {"horizon_s": "1800"}
    asym = _study("network_asymmetric", "network",
                  configs / "network_asymmetric.ini", outdir, asym_over)
    sym = _study("network_symmetric", "network",
                 configs / "network_symmetric.ini", outdir, {})

    def check():
        out = {("asymmetric", k): v for k, v in
               checks.check_network(asym.out, asym.cfg).items()}
        out.update({("symmetric", k): v for k, v in
                    checks.check_network(sym.out, sym.cfg).items()})
        return out
    return [asym, sym], check


WORKLOADS = {"throughput": throughput, "traveltime": traveltime,
             "network": network}
