import csv
import json
from datetime import date, timedelta

import numpy as np
import pytest

from knotselect.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def xy_csv(tmp_path):
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 10, 120)
    y = 1 + xs + np.where(xs >= 5, -2.0 * (xs - 5), 0.0) + rng.normal(0, 0.1, 120)
    path = tmp_path / "xy.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for a, b in zip(xs, y):
            w.writerow([a, b])
    return str(path)


@pytest.fixture
def daily_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 120
    log_rate = np.cumsum(np.where(np.arange(n) < 60, 0.05, -0.03)) + np.log(40)
    counts = rng.poisson(np.exp(log_rate))
    start = date(2020, 3, 1)
    path = tmp_path / "daily.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dateRep", "cases", "countriesAndTerritories"])
        for i, c in enumerate(counts):
            d = start + timedelta(days=i)
            w.writerow([d.strftime("%d/%m/%Y"), int(c), "Atlantis"])
    return str(path)


class TestFit:
    def test_json_contract(self, capsys, xy_csv):
        code, out, _ = run_cli(capsys, "fit", xy_csv, "--basis", "truncated-power", "--degree", "1")
        assert code == 0
        payload = json.loads(out)
        for key in ("knots", "coefficients", "rss", "pss", "lambda", "effective_config"):
            assert key in payload
        assert payload["effective_config"]["degree"] == 1

    def test_recovers_kink(self, capsys, xy_csv):
        code, out, _ = run_cli(
            capsys, "fit", xy_csv, "--basis", "truncated-power", "--degree", "1",
            "--grid-step", "0.5",
        )
        payload = json.loads(out)
        assert len(payload["knots"]) == 1
        assert abs(payload["knots"][0] - 5.0) <= 0.5

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error" in err

    def test_unknown_flag_exit_3(self, capsys, xy_csv):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "fit", xy_csv, "--bogus")
        assert exc.value.code == 3

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_nonpositive_grid_step_exit_3(self, capsys, xy_csv, step):
        code, out, err = run_cli(capsys, "fit", xy_csv, "--grid-step", step)
        assert code == 3 and out == ""
        assert err.startswith("error: --grid-step") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag,value",
        [("--delta", "nan"), ("--delta", "inf"), ("--lambda", "nan"), ("--lambda", "inf")],
    )
    def test_nonfinite_setting_exit_3(self, capsys, xy_csv, flag, value):
        code, out, err = run_cli(capsys, "fit", xy_csv, flag, value)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and value in err and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["table", "svg"])
    def test_xy_input_rejects_series_formats_exit_3(self, capsys, xy_csv, fmt):
        code, out, err = run_cli(capsys, "fit", xy_csv, "--format", fmt)
        assert code == 3 and out == ""
        assert err.startswith(f"error: --format {fmt} needs a time series") and err.count("\n") == 1

    def test_more_cv_folds_than_rows_exit_3(self, capsys, tmp_path):
        path = tmp_path / "eight.csv"
        path.write_text("x,y\n" + "".join(f"{i},{i * i % 5}\n" for i in range(8)))
        code, out, err = run_cli(
            capsys, "fit", str(path), "--lambda-policy", "cv", "--cv-folds", "9"
        )
        assert code == 3 and out == ""
        assert "9" in err and "8" in err and err.count("\n") == 1

    @pytest.mark.parametrize("basis", ["natural", "truncated-power"])
    def test_four_rows_too_few_for_cubic_k0_exit_2(self, capsys, tmp_path, basis):
        # natural cubic fits k = 0 in cubic truncated power: 4 columns
        path = tmp_path / "four.csv"
        path.write_text("x,y\n0,1\n1,3\n2,2\n3,5\n")
        code, out, err = run_cli(capsys, "fit", str(path), "--basis", basis)
        assert code == 2 and out == ""
        assert "need more than 4 observations for the k=0 fit" in err

    def test_output_file(self, capsys, xy_csv, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "fit", xy_csv, "--output", str(dest))
        assert code == 0 and out == ""
        json.loads(dest.read_text())

    def test_timeseries_mode(self, capsys, daily_csv):
        code, out, _ = run_cli(
            capsys, "fit", daily_csv, "--country", "Atlantis", "--scale", "log",
            "--basis", "truncated-power", "--degree", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "Atlantis"
        assert all(isinstance(k, str) for k in payload["knots"])
        assert len(payload["forecast"]) == 8  # anchor + 7 days


class TestPredict:
    def test_json(self, capsys, daily_csv):
        code, out, _ = run_cli(capsys, "predict", daily_csv, "--scale", "log", "--horizon", "5")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["forecast"]) == 6
        assert payload["forecast"][0]["extrapolated"] is False

    def test_csv_format(self, capsys, daily_csv):
        code, out, _ = run_cli(capsys, "predict", daily_csv, "--scale", "log", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "date,point,lower,upper,extrapolated"
        assert len(rows) == 9

    def test_svg_format(self, capsys, daily_csv):
        code, out, _ = run_cli(capsys, "predict", daily_csv, "--scale", "log", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") or out.startswith("<?xml")

    def test_unknown_group_exit_2(self, capsys, daily_csv):
        code, _, err = run_cli(capsys, "predict", daily_csv, "--country", "Narnia")
        assert code == 2


class TestSimulate:
    ARGS = ("simulate", "--scenario", "one-knot-snr9-n100", "--replications", "4", "--seed", "7")

    def test_byte_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_drawn_seed_recorded(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "one-knot-snr9-n100", "--replications", "2"
        )
        assert code == 0
        payload = json.loads(out)
        seed = payload["effective_config"]["seeds"][0]
        assert isinstance(seed, int)
        assert "drew" in err

    def test_seed_replay_from_artifact(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--scenario", "one-knot-snr9-n100", "--replications", "2"
        )
        seed = json.loads(out)["effective_config"]["seeds"][0]
        _, replay, _ = run_cli(
            capsys, "simulate", "--scenario", "one-knot-snr9-n100",
            "--replications", "2", "--seed", str(seed),
        )
        assert json.loads(out)["reports"] == json.loads(replay)["reports"]

    def test_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "sc.json"
        cfgfile.write_text(json.dumps(
            {"truth": "one-knot", "snr": 9, "n": 100, "replications": 2, "seed": 3}
        ))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)["effective_config"]["seeds"] == [3]

    def test_bad_config_exit_3(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text('{"truth": "one-knot"}')
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 3

    @pytest.mark.parametrize(
        "key,value",
        [("grid_step", "0"), ("grid_step", "-2.5"), ("grid_step", "NaN"), ("snr", "NaN")],
    )
    def test_bad_scenario_value_exit_3(self, capsys, tmp_path, key, value):
        entries = {"truth": '"one-knot"', "snr": "3", "n": "100", "replications": "2", key: value}
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in entries.items()) + "}")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 3 and out == ""
        assert err.startswith(f"error: $: {key} must be a positive") and err.count("\n") == 1

    def test_needs_scenario_or_config(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 3

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "table")
        assert code == 0
        assert "SNR" in out


class TestDemo:
    def test_bad_fit_and_automatic(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["bad_fit"]["knots"] == [float(t) for t in range(6, 27, 2)]
        assert len(payload["bad_fit"]["knots"]) == 11
        assert payload["truth"]["knots"] == [20.0, 45.0, 80.0]
        auto = payload["automatic_fit"]
        assert auto["k_hat"] == 3
        for est, true in zip(auto["knots"], (20.0, 45.0, 80.0)):
            assert abs(est - true) <= 4.0

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "demo", "--seed", "5")
        _, out2, _ = run_cli(capsys, "demo", "--seed", "5")
        assert out1 == out2

    def test_svg(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--seed", "0", "--format", "svg")
        assert code == 0
        assert "<svg" in out
