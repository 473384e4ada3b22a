"""Output checks for the benchmark workloads.

Each check reads one CSV written by a `gaussctm` CLI study and returns,
per study point, the list of reasons that point is wrong (an empty list
means the point passed).  The checks are computed apart from the
program: from the inputs the benchmark wrote, from closed-form bounds,
or from properties the method must have.  None of them compares against
a stored copy of an earlier CSV.

Only the standard library is used, so a check cannot share a fault with
the numerical code it checks.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction


def num(s):
    """A config number, allowing fractions such as 11/108."""
    s = s.strip()
    return float(Fraction(s)) if "/" in s else float(s)


def nums(s):
    return [num(x) for x in s.split(",") if x.strip()]


def read_rows(path):
    """The CSV's rows, or None if the study wrote no CSV."""
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        return None


def _fail_all(failures, reason):
    for key in failures:
        failures[key].append(reason)


# ---------------------------------------------------------------------------
# throughput

KINK_MARGIN = 200.0  # veh/h: points this close to nu count as "at the kink"
N_SE = 4.0  # "within a few standard errors"
MAX_REL_ERR = 0.10  # Gaussian against simulated, away from the kink


def poisson_se(rate, hours):
    """Standard error (veh/h) of a rate estimated by counting Poisson
    arrivals over `hours`.  Below capacity the simulator's time-averaged
    arrival rate varies less than such a count."""
    return math.sqrt(max(rate, 0.0) / hours)


def check_throughput(paths, cfg):
    """One CSV per replication, all with the same sweep; points are keyed
    by (cell length, lambda)."""
    nu = num(cfg["segment"]["nu_veh_per_h"])
    q_max = num(cfg["flux"]["q_max_veh_per_h"])
    hours = num(cfg["simulation"]["horizon_h"]) * len(paths)
    lengths = nums(cfg["sweep"]["cell_lengths_km"])
    n_lam = int(cfg["sweep"]["lambda_points"])
    lam_lo = num(cfg["sweep"]["lambda_min_veh_per_h"])
    lam_hi = num(cfg["sweep"]["lambda_max_veh_per_h"])
    lams = [lam_lo + (lam_hi - lam_lo) * k / (n_lam - 1) for k in range(n_lam)]
    expected = [(ell, lam) for ell in lengths for lam in lams]
    failures = {key: [] for key in expected}
    tables = [read_rows(p) for p in paths]
    if any(t is None for t in tables):
        _fail_all(failures, "no output")
        return failures
    if any(len(t) != len(expected) for t in tables):
        _fail_all(failures, f"{[len(t) for t in tables]} rows, "
                            f"expected {len(expected)} in each")
        return failures
    cap = min(nu, q_max)
    by_length = {}
    for k, key in enumerate(expected):
        ell, lam = key
        bad = failures[key]
        rows = [t[k] for t in tables]
        if not all(math.isclose(float(r["cell_length_km"]), ell, rel_tol=1e-9)
                   and math.isclose(float(r["lambda_veh_per_h"]), lam,
                                    rel_tol=1e-9, abs_tol=1e-9) for r in rows):
            bad.append(f"rows out of order, expected {key}")
            continue
        stoch = {float(r["stochastic_veh_per_h"]) for r in rows}
        det = {float(r["deterministic_veh_per_h"]) for r in rows}
        sims = [float(r["simulated_veh_per_h"]) for r in rows]
        if len(stoch) != 1 or len(det) != 1:
            bad.append("Gaussian or deterministic estimate differs between "
                       "replications")
            continue
        stoch, det = stoch.pop(), det.pop()
        if not all(map(math.isfinite, [stoch, det] + sims)):
            bad.append("non-finite estimate")
            continue
        sim = sum(sims) / len(sims)
        se = math.sqrt(sum((x - sim) ** 2 for x in sims)
                       / (len(sims) - 1) / len(sims))
        if lam < nu - KINK_MARGIN:
            pse = poisson_se(lam, hours)
            if abs(sim - lam) > N_SE * pse + 1e-9:
                bad.append(f"simulated {sim:.1f} not within {N_SE:g} SE "
                           f"({pse:.1f}) of lambda {lam:.1f}")
        if sim > cap + N_SE * poisson_se(cap, hours):
            bad.append(f"simulated {sim:.1f} exceeds min(nu, q_max) {cap:.1f}")
        if abs(lam - nu) > KINK_MARGIN and abs(stoch - sim) > (
                MAX_REL_ERR * sim + N_SE * se + 1e-9):
            bad.append(f"Gaussian {stoch:.1f} not within {MAX_REL_ERR:.0%} "
                       f"+ {N_SE:g} SE ({se:.1f}) of simulated {sim:.1f}")
        by_length.setdefault(ell, []).append((key, stoch, det, sim))
    # The paper's claim: the deterministic plug-in errs more than the
    # Gaussian estimate.  It is judged over the sweep points where the two
    # estimates differ; where they agree (saturated points) neither errs
    # more, and the simulated noise there would decide a tie.  The claim
    # binds every point of the sweep.
    for ell, pts in by_length.items():
        differ = [p for p in pts
                  if abs(p[2] - p[1]) > 1e-9 * max(1.0, abs(p[2]))]
        gauss_err = max((abs(s - m) for _, s, _, m in differ), default=0.0)
        det_err = max((abs(d - m) for _, _, d, m in differ), default=0.0)
        if not det_err > gauss_err:
            for key, *_ in pts:
                failures[key].append(
                    f"deterministic max error {det_err:.1f} does not exceed "
                    f"Gaussian max error {gauss_err:.1f} at l={ell:g} over "
                    f"the {len(differ)} points where they differ")
    return failures


# ---------------------------------------------------------------------------
# route choice

# Route-2 moments (mean, std) in seconds published in the source paper.
PAPER_ROUTE2 = {"setting1": (135.86, 13.87), "setting2": (98.93, 10.56)}
PAPER_REL_TOL = 0.05


def check_route_choice(path, cfg):
    """Points are keyed by (setting, k): the k-th route-1 divisor."""
    settings = [s for s in cfg.sections() if s.startswith("setting")]
    n_div = len(nums(cfg["init"]["route1_divisors"]))
    c_values = nums(cfg["grid"]["c_values"])
    failures = {(s, k): [] for s in settings for k in range(n_div)}
    rows = read_rows(path)
    if rows is None:
        _fail_all(failures, "no output")
        return failures
    labels = {s: [] for s in settings}
    moments, selections = {}, {}
    for r in rows:
        if r["setting"] not in labels:
            _fail_all(failures, f"unexpected setting {r['setting']!r}")
            return failures
        seen = labels[r["setting"]]
        if r["b1"] not in seen:
            seen.append(r["b1"])
        key = (r["setting"], seen.index(r["b1"]))
        if r["kind"] == "moments":
            moments.setdefault(key, {})[int(r["route"])] = (
                float(r["mu_s"]), float(r["sigma_s"]))
        else:
            selections.setdefault(key, []).append(
                (float(r["c"]), int(r["selected_route"])))
    for key, bad in failures.items():
        m = moments.get(key, {})
        if len(labels[key[0]]) != n_div or set(m) != {1, 2}:
            bad.append("moments of routes 1 and 2 missing")
            continue
        if not all(math.isfinite(v) and v >= 0 for mu_sd in m.values() for v in mu_sd):
            bad.append("non-finite or negative moments")
            continue
        ref = PAPER_ROUTE2.get(key[0])
        if ref is not None:
            for got, want, what in zip(m[2], ref, ("mean", "std")):
                if abs(got - want) > PAPER_REL_TOL * want:
                    bad.append(f"route-2 {what} {got:.2f} s not within "
                               f"{PAPER_REL_TOL:.0%} of the paper's {want} s")
        picks = selections.get(key, [])
        if [c for c, _ in picks] != c_values:
            bad.append(f"selection rows for c={[c for c, _ in picks]}, "
                       f"expected {c_values}")
        for c, picked in picks:
            u = {k: mu + c * sd for k, (mu, sd) in m.items()}
            best = min(u.values())
            allowed = {k for k, v in u.items()
                       if v - best <= 1e-9 * max(1.0, abs(best))}
            if picked not in allowed:
                bad.append(f"c={c:g}: selected route {picked}, argmin of "
                           f"mu + c*sigma is {sorted(allowed)}")
    return failures


# ---------------------------------------------------------------------------
# two-class control points

SMEARING = 0.03  # the Gaussian tail may undercut the free-flow time by this share


def free_flow_times(cfg):
    """Free-flow travel time d*l/v_f,j in seconds for cars and trucks."""
    fx, seg = cfg["flux"], cfg["segment"]
    dist = int(seg["d"]) * num(seg["cell_length_km"])
    return {1: dist / num(fx["v_f_car_km_per_h"]) * 3600.0,
            2: dist / num(fx["v_f_truck_km_per_h"]) * 3600.0}


def control_means(path, cfg):
    """Per-class mean travel time of the single lambda point in a control
    CSV, with the reasons that point is wrong."""
    rows = read_rows(path)
    if rows is None:
        return {}, ["no output"]
    bad = []
    lam = nums(cfg["sweeps"]["lambda_values_veh_per_h"])
    if len(lam) != 1 or len(rows) != 2:
        return {}, [f"{len(rows)} rows, expected one point of 2 classes"]
    free = free_flow_times(cfg)
    means = {}
    for r in rows:
        j = int(r["class"])
        mean, std = float(r["mean_s"]), float(r["std_s"])
        if r["sweep"] != "lambda" or not math.isclose(float(r["value"]), lam[0]):
            bad.append(f"unexpected row {r}")
            continue
        if not (math.isfinite(mean) and math.isfinite(std) and std >= 0):
            bad.append(f"class {j}: bad moments ({mean}, {std})")
            continue
        if mean < (1.0 - SMEARING) * free[j]:
            bad.append(f"class {j}: mean {mean:.1f} s below the free-flow "
                       f"time {free[j]:.1f} s less {SMEARING:.0%}")
        means[j] = mean
    if set(means) != {1, 2} and not bad:
        bad.append("class rows missing")
    return means, bad


def check_control_pair(free_path, free_cfg, jam_path, jam_cfg):
    """Points are 'free' and 'congested'."""
    free_means, free_bad = control_means(free_path, free_cfg)
    jam_means, jam_bad = control_means(jam_path, jam_cfg)
    failures = {"free": free_bad, "congested": jam_bad}
    for j in (1, 2):
        if j in free_means and j in jam_means and not jam_means[j] > free_means[j]:
            _fail_all(failures, f"class {j}: congested mean {jam_means[j]:.1f} s "
                                f"not above free-flowing {free_means[j]:.1f} s")
    return failures


# ---------------------------------------------------------------------------
# network

SYMMETRY_TOL = 1e-8


def check_network(path, cfg):
    """Points are keyed by the p12 value of each routing case."""
    net = cfg["network"]
    rho_max = num(net["rho_max_veh_per_km"])
    lam = num(net["lambda_veh_per_h"])
    ell = num(net["cell_length_km"])
    symmetric = net.get("variant", "symmetric") == "symmetric"
    splits = [num(net["p12"])] if symmetric else nums(cfg["asymmetric"]["p12_values"])
    horizon = num(net["horizon_s"])
    every = num(cfg["output"]["sample_every_s"])
    n_times = int(math.floor(horizon / every + 1e-9)) + 1
    failures = {p: [] for p in splits}
    rows = read_rows(path)
    if rows is None:
        _fail_all(failures, "no output")
        return failures
    cases = {}
    for r in rows:
        p12 = float(r["p12"])
        key = next((p for p in splits if math.isclose(p, p12, abs_tol=1e-9)), None)
        if key is None:
            _fail_all(failures, f"unexpected p12 value {p12}")
            return failures
        cases.setdefault(key, {}).setdefault(float(r["time_s"]), {})[r["cell"]] = (
            float(r["mean_veh_per_km"]), float(r["std_veh_per_km"]))
    for p12, bad in failures.items():
        times = cases.get(p12, {})
        if len(times) != n_times:
            bad.append(f"{len(times)} sample times, expected {n_times}")
            continue
        for t, cells in times.items():
            if not all(map(math.isfinite, (v for ms in cells.values() for v in ms))):
                bad.append(f"t={t:g}: non-finite moments")
                break
            low = min(m for m, _ in cells.values())
            high = max(m for m, _ in cells.values())
            if low < 0 or high > rho_max * (1 + 1e-12):
                bad.append(f"t={t:g}: mean density outside [0, {rho_max:g}]")
                break
            if min(s for _, s in cells.values()) < 0:
                bad.append(f"t={t:g}: negative standard deviation")
                break
            total = ell * sum(m for m, _ in cells.values())
            arrived = lam * t / 3600.0
            if total > arrived * (1 + 1e-9) + 1e-9:
                bad.append(f"t={t:g}: {total:.3f} vehicles on the network, "
                           f"more than the {arrived:.3f} that can have arrived")
                break
            if symmetric:
                for name, (m, s) in cells.items():
                    twin = name.replace("r2[", "r4[").replace("r3[", "r5[")
                    if twin == name:
                        continue
                    m2, s2 = cells.get(twin, (math.nan, math.nan))
                    if not (abs(m - m2) <= SYMMETRY_TOL * max(1.0, abs(m))
                            and abs(s - s2) <= SYMMETRY_TOL * max(1.0, abs(s))):
                        bad.append(f"t={t:g}: {name} ({m}, {s}) differs "
                                   f"from {twin} ({m2}, {s2})")
                        break
                if bad:
                    break
    return failures
