"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The quick mode runs every workload end to end; its CSVs then serve as
the sound outputs that each check must pass, and corrupted copies of
them must fail the check that targets the corruption.
"""

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
SEED = 3
QUICK_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def quick_runs():
    results = {}
    t0 = time.perf_counter()
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--quick"],
            capture_output=True, text=True, timeout=QUICK_BUDGET_S, check=True)
        results[name] = json.loads(done.stdout.splitlines()[-1])
    return results, time.perf_counter() - t0


def test_quick_mode_runs_every_workload_under_a_minute(quick_runs):
    results, elapsed = quick_runs
    assert elapsed < QUICK_BUDGET_S
    for name, res in results.items():
        assert res["correct"], name
        assert res["attempted"] > 0 and res["failed"] == 0, name
        assert set(res["metrics"]) == {"wall_s", "peak_rss_mb"}, name


def plan(name, quick_runs, tmp_path):
    """The quick run's studies, with their CSVs copied to tmp_path so a
    test can corrupt them."""
    studies, check = workloads.WORKLOADS[name](
        CONFIGS, HERE / "out" / name, SEED, quick=True)
    for s in studies:
        copy = tmp_path / s.out.name
        shutil.copy(s.out, copy)
        s.out = copy
    assert not any(check().values()), "the sound outputs must pass"
    return {s.name: s for s in studies}, check


def edit(path, change):
    """Rewrite a CSV, passing each row (a dict) through change(row)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    for r in rows:
        change(r)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def failing(check):
    return {k: v for k, v in check().items() if v}


def only_reason(bad, fragment):
    reasons = [r for rs in bad.values() for r in rs]
    assert reasons and all(fragment in r for r in reasons), reasons


# -- throughput -------------------------------------------------------------

def _set_at(lam, column, value):
    def change(r):
        if float(r["lambda_veh_per_h"]) == lam:
            r[column] = value(float(r[column]), r)
    return change


def test_throughput_below_capacity_must_match_lambda(quick_runs, tmp_path):
    studies, check = plan("throughput", quick_runs, tmp_path)
    for s in studies.values():
        edit(s.out, _set_at(560.0, "simulated_veh_per_h", lambda v, r: 450.0))
    bad = failing(check)
    assert list(bad) == [(checks.num("11/108"), 560.0)]
    assert any("of lambda" in r for r in bad[(checks.num("11/108"), 560.0)])


def test_throughput_never_exceeds_exit_capacity(quick_runs, tmp_path):
    studies, check = plan("throughput", quick_runs, tmp_path)
    for s in studies.values():
        edit(s.out, _set_at(2520.0, "simulated_veh_per_h", lambda v, r: 1300.0))
    bad = failing(check)
    assert list(bad) == [(checks.num("11/108"), 2520.0)]
    reasons = bad[(checks.num("11/108"), 2520.0)]
    assert any("exceeds min(nu, q_max)" in r for r in reasons)


def test_throughput_gaussian_within_ten_percent(quick_runs, tmp_path):
    studies, check = plan("throughput", quick_runs, tmp_path)
    for s in studies.values():
        edit(s.out, _set_at(280.0, "stochastic_veh_per_h", lambda v, r: v * 1.2))
    bad = failing(check)
    assert list(bad) == [(checks.num("11/108"), 280.0)]
    only_reason(bad, "Gaussian")


def test_throughput_deterministic_errs_more(quick_runs, tmp_path):
    studies, check = plan("throughput", quick_runs, tmp_path)

    def same_as_gaussian(r):
        r["deterministic_veh_per_h"] = r["stochastic_veh_per_h"]
    for s in studies.values():
        edit(s.out, same_as_gaussian)
    bad = failing(check)
    assert len(bad) == 10
    only_reason(bad, "deterministic max error")


# -- traveltime -------------------------------------------------------------

def test_route2_moments_match_the_paper(quick_runs, tmp_path):
    studies, check = plan("traveltime", quick_runs, tmp_path)

    def off(r):
        if r["kind"] == "moments" and r["setting"] == "setting1" and r["route"] == "2":
            r["mu_s"] = str(float(r["mu_s"]) * 1.07)
    edit(studies["route_choice"].out, off)
    bad = failing(check)
    assert {k[1] for k in bad} == {"setting1"} and len(bad) == 3
    only_reason(bad, "paper")


def test_selected_route_is_the_argmin(quick_runs, tmp_path):
    studies, check = plan("traveltime", quick_runs, tmp_path)
    flipped = []

    def flip(r):
        if r["kind"] == "selection" and not flipped:
            r["selected_route"] = "2" if r["selected_route"] == "1" else "1"
            flipped.append(r["setting"])
    edit(studies["route_choice"].out, flip)
    bad = failing(check)
    assert list(bad) == [("route", flipped[0], 0)]
    only_reason(bad, "argmin")


def test_class_mean_at_least_free_flow_time(quick_runs, tmp_path):
    studies, check = plan("traveltime", quick_runs, tmp_path)
    free = checks.free_flow_times(studies["control_free"].cfg)

    def too_fast(r):
        if r["class"] == "2":
            r["mean_s"] = str(0.9 * free[2])
    edit(studies["control_free"].out, too_fast)
    bad = failing(check)
    assert list(bad) == ["free"]
    only_reason(bad, "free-flow time")


def test_congested_point_is_slower(quick_runs, tmp_path):
    studies, check = plan("traveltime", quick_runs, tmp_path)
    shutil.copy(studies["control_free"].out, studies["control_congested"].out)

    jam_lambda = studies["control_congested"].cfg["sweeps"][
        "lambda_values_veh_per_h"]

    def relabel(r):
        r["value"] = jam_lambda
    edit(studies["control_congested"].out, relabel)
    bad = failing(check)
    assert set(bad) == {"free", "congested"}
    only_reason(bad, "not above free-flowing")


# -- network ----------------------------------------------------------------

def _network_edit(studies, variant, change):
    edit(studies[f"network_{variant}"].out, change)


def test_network_means_within_jam_density(quick_runs, tmp_path):
    studies, check = plan("network", quick_runs, tmp_path)

    def negative(r):
        if r["cell"] == "r6[5]" and float(r["time_s"]) == 0.0:
            r["mean_veh_per_km"] = "-0.5"
    _network_edit(studies, "asymmetric", negative)
    bad = failing(check)
    assert len(bad) == 3 and all(k[0] == "asymmetric" for k in bad)
    only_reason(bad, "outside [0,")


def test_network_standard_deviations_nonnegative(quick_runs, tmp_path):
    studies, check = plan("network", quick_runs, tmp_path)
    p12 = checks.num(studies["network_symmetric"].cfg["network"]["p12"])

    def negative(r):
        if r["cell"] == "x6[1]":
            r["std_veh_per_km"] = "-1e-3"
    _network_edit(studies, "symmetric", negative)
    bad = failing(check)
    assert list(bad) == [("symmetric", p12)]
    only_reason(bad, "negative standard deviation")


def test_network_vehicles_at_most_arrivals(quick_runs, tmp_path):
    studies, check = plan("network", quick_runs, tmp_path)
    p12 = checks.num(studies["network_symmetric"].cfg["network"]["p12"])

    out = studies["network_symmetric"].out
    with open(out, newline="") as fh:
        t1 = sorted({float(r["time_s"]) for r in csv.DictReader(fh)})[1]

    def crowd(r):
        if float(r["time_s"]) == t1 and r["cell"].startswith("r1["):
            r["mean_veh_per_km"] = str(float(r["mean_veh_per_km"]) + 20.0)
    _network_edit(studies, "symmetric", crowd)
    bad = failing(check)
    assert list(bad) == [("symmetric", p12)]
    only_reason(bad, "can have arrived")


def test_network_symmetric_branches_agree(quick_runs, tmp_path):
    studies, check = plan("network", quick_runs, tmp_path)
    p12 = checks.num(studies["network_symmetric"].cfg["network"]["p12"])

    def nudge(r):
        if r["cell"] == "r3[2]" and float(r["time_s"]) > 500.0:
            r["mean_veh_per_km"] = repr(float(r["mean_veh_per_km"]) + 1e-5)
    _network_edit(studies, "symmetric", nudge)
    bad = failing(check)
    assert list(bad) == [("symmetric", p12)]
    only_reason(bad, "differs from r5[2]")
