import csv

import numpy as np
import pytest

from gaussctm.cli import main, synthetic_series

THROUGHPUT_INI = """\
[flux]
v_f_km_per_h = 80
w_km_per_h = 16
rho_max_veh_per_km = 108
q_max_veh_per_h = 1800

[segment]
d = 2
nu_veh_per_h = 1200

[sweep]
cell_lengths_km = 11/108
lambda_min_veh_per_h = 0
lambda_max_veh_per_h = 800
lambda_points = 2

[simulation]
horizon_h = 0.5
warmup_h = 0.1
replications = 2

[solver]
fixed_point_dt_h = 0.001
fixed_point_tol = 1e-9
"""

ROUTE_INI = """\
[setting1]
d = 3
cell_length_km = 1
w_km_per_h = 16
rho_max_veh_per_km = 108
q_max_veh_per_h = 1500
lambda_veh_per_h = 1400
nu_veh_per_h = 1500
route1_v_f_km_per_h = 90
route2_v_f_km_per_h = 80

[init]
route1_divisors = 2
route2_divisor = 5

[grid]
x_max_s = 400
points = 401
c_values = 0, 3

[solver]
step_h = 0.001
"""

CONTROL_INI = """\
[flux]
v_f_car_km_per_h = 108
v_f_truck_km_per_h = 79.2
v_c_km_per_h = 61.2
L_car_km = 0.0065
L_truck_km = 0.0165
n_lanes = 3
beta = 0.25

[segment]
d = 2
cell_length_km = 1
lambda_veh_per_h = 1200
truck_fraction = 0.2
nu_capacity_fraction = 2/3

[sweeps]
v_f_values_km_per_h = 108
n_lanes_values = 3
lambda_values_veh_per_h = 1200
truck_fractions = 0.2

[grid]
x_max_s = 600
points = 301

[solver]
step_h = 0.001
fixed_point_dt_h = 0.001
fixed_point_tol = 1e-9
"""

NETWORK_INI = """\
[network]
variant = symmetric
d = 2
cell_length_km = 1
v_f_km_per_h = 80
w_km_per_h = 20
rho_max_veh_per_km = 108
q_max_veh_per_h = 1800
lambda_veh_per_h = 1800
nu_veh_per_h = 900
p12 = 0.5
p23 = 0.75
p45 = 0.75
p36 = 0.5
horizon_s = 200

[solver]
step_h = 0.001

[output]
sample_every_s = 100
"""

VALIDATE_INI = """\
[input]
csv_path =
sites = site1, site2
synthetic_days = 25
mean_veh_per_h = 1500
std_veh_per_h = 120

[test]
taus = 20
pairs = true
"""


def run(tmp_path, name, ini, command, seed=0):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(ini)
    out = tmp_path / f"{name}.csv"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return out, rows


class TestMain:
    def test_missing_config_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["throughput", "--config", str(tmp_path / "nope.ini"),
                  "--out", str(tmp_path / "o.csv")])

    def test_unknown_command(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x", "--out", "y"])

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "t.ini"
        cfg.write_text(THROUGHPUT_INI)
        out = tmp_path / "t.csv"
        assert main(["throughput", "--config", str(cfg), "--out", str(out),
                     "--dry-run"]) == 0
        assert not out.exists()
        assert "throughput" in capsys.readouterr().out


class TestThroughputCommand:
    def test_zero_lambda_row_is_zero(self, tmp_path):
        _, rows = run(tmp_path, "t", THROUGHPUT_INI, "throughput")
        assert len(rows) == 2
        first = rows[0]
        assert float(first["lambda_veh_per_h"]) == 0.0
        assert float(first["stochastic_veh_per_h"]) == 0.0
        assert float(first["deterministic_veh_per_h"]) == 0.0
        assert float(first["simulated_veh_per_h"]) == 0.0

    def test_light_traffic_estimators_agree(self, tmp_path):
        _, rows = run(tmp_path, "t", THROUGHPUT_INI, "throughput")
        row = rows[1]
        assert float(row["lambda_veh_per_h"]) == 800.0
        stoch = float(row["stochastic_veh_per_h"])
        det = float(row["deterministic_veh_per_h"])
        sim = float(row["simulated_veh_per_h"])
        assert abs(stoch - 800.0) < 40.0
        assert abs(det - 800.0) < 40.0
        assert abs(sim - 800.0) < 80.0

    @pytest.mark.parametrize("reps", [0, -1])
    def test_replications_must_be_positive(self, tmp_path, reps):
        # with no replication the simulated column was the mean of nothing
        ini = THROUGHPUT_INI.replace("replications = 2", f"replications = {reps}")
        with pytest.raises(ValueError, match="replications"):
            run(tmp_path, "t", ini, "throughput")


class TestRouteChoiceCommand:
    def test_moment_and_selection_rows(self, tmp_path):
        _, rows = run(tmp_path, "r", ROUTE_INI, "route-choice")
        moments = [r for r in rows if r["kind"] == "moments"]
        selection = [r for r in rows if r["kind"] == "selection"]
        assert len(moments) == 2 and len(selection) == 2
        by_route = {r["route"]: r for r in moments}
        mu1, mu2 = (float(by_route[k]["mu_s"]) for k in ("1", "2"))
        assert mu2 > mu1 > 100.0
        assert by_route["1"]["b1"] == "1/2"
        assert {r["c"] for r in selection} == {"0", "3"}
        assert all(r["selected_route"] in ("1", "2") for r in selection)


class TestControlCommand:
    def test_row_layout_and_free_flow_times(self, tmp_path):
        _, rows = run(tmp_path, "c", CONTROL_INI, "control")
        assert len(rows) == 6  # 3 sweep points x 2 classes
        assert {r["sweep"] for r in rows} == {"v_f", "N", "lambda"}
        for r in rows:
            mean = float(r["mean_s"])
            v_f = 108.0 if r["class"] == "1" else 79.2
            free = 2.0 / v_f * 3600.0
            assert free * 0.98 < mean < free * 1.2


class TestNetworkCommand:
    def test_symmetric_branches_match(self, tmp_path):
        _, rows = run(tmp_path, "n", NETWORK_INI, "network")
        final = [r for r in rows if float(r["time_s"]) == 200.0]
        assert final
        cells = {r["cell"]: r for r in final}
        for a, b in (("r2[1]", "r4[1]"), ("r3[2]", "r5[2]"),
                     ("x2[1]", "x4[1]")):
            assert float(cells[a]["mean_veh_per_km"]) == pytest.approx(
                float(cells[b]["mean_veh_per_km"]), abs=1e-9)
            assert float(cells[a]["std_veh_per_km"]) == pytest.approx(
                float(cells[b]["std_veh_per_km"]), abs=1e-9)

    def test_rows_at_the_requested_sample_times(self, tmp_path):
        # 100 s is not a whole number of 3.6 s steps: the solve steps each
        # sample interval on its own, so no time is snapped to a step
        ini = NETWORK_INI.replace("horizon_s = 200", "horizon_s = 360")
        _, rows = run(tmp_path, "n", ini, "network")
        times = list(dict.fromkeys(r["time_s"] for r in rows))
        assert times == ["0", "100", "200", "300"]
        assert len(rows) == 4 * len({r["cell"] for r in rows})

    def test_densities_fill_over_time(self, tmp_path):
        _, rows = run(tmp_path, "n", NETWORK_INI, "network")
        r1 = [float(r["mean_veh_per_km"]) for r in rows if r["cell"] == "r1[1]"]
        assert r1[0] == 0.0
        assert r1[-1] > 1.0


class TestValidateCommand:
    def test_output_structure(self, tmp_path):
        _, rows = run(tmp_path, "v", VALIDATE_INI, "validate")
        assert {r["series"] for r in rows} == {"site1", "site2",
                                               "site1+site2"}
        labels = {r["label"] for r in rows}
        assert "univariate" in labels and "(2,-2)" in labels
        for r in rows:
            p = float(r["p_value"])
            assert 0.0 <= p <= 1.0
        # cumulative p is nondecreasing within each series/label group
        site1 = [float(r["cumulative_p"]) for r in rows
                 if r["series"] == "site1"]
        assert all(b >= a for a, b in zip(site1, site1[1:]))

    def test_deterministic_given_seed(self, tmp_path):
        out1, _ = run(tmp_path, "v1", VALIDATE_INI, "validate", seed=7)
        out2, _ = run(tmp_path, "v2", VALIDATE_INI, "validate", seed=7)
        assert out1.read_bytes() == out2.read_bytes()


class TestSyntheticSeries:
    def test_window_and_independence(self):
        series = synthetic_series(["a", "b"], 3, 1500.0, 120.0, 0)
        a = series["a"]
        assert len(a.flows) == 3 * 420
        assert a.times[0].hour == 4
        assert a.times[419].hour == 10
        assert not np.allclose(series["a"].flows, series["b"].flows)
