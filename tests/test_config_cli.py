import csv
import json
from dataclasses import fields
from pathlib import Path

import pytest

import galbank as gb
from galbank import config as config_module
from galbank.cli import main
from galbank.config import DEFAULT_SEED


def write_config(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def read_long_csv(path: Path) -> dict:
    out = {}
    with open(path) as fh:
        rows = [r for r in fh if not r.startswith("#")]
    for row in csv.DictReader(rows):
        out[(row["scope"], row["metric"])] = row["value"]
    return out


# --- config parsing ---------------------------------------------------------

def test_empty_config_is_headline_run():
    config = gb.parse_config({})
    assert config == gb.RunConfig(
        calibration=gb.CalibrationParams(), shock=gb.ShockParams(), loss=gb.LossConfig(),
        n_scenarios=10_000, seed=DEFAULT_SEED, grid=gb.GridSpec(),
    )
    assert config.shock.correlation == 0.25
    assert config.shock.mean_loss == pytest.approx(0.2)
    assert not config.loss.deposit_insurance
    assert config.loss.threshold_fraction == 0.01


@pytest.mark.parametrize("block,cls", [("shock", gb.ShockParams), ("loss", gb.LossConfig)])
def test_block_keys_are_dataclass_fields(block, cls):
    _, readers = config_module._BLOCKS[block]
    assert readers.keys() == {f.name for f in fields(cls)}


def test_load_config_none_gives_defaults():
    assert gb.load_config(None) == gb.RunConfig()


def test_unknown_field_rejected_with_location():
    with pytest.raises(gb.ConfigError, match=r"shock\.correl"):
        gb.parse_config({"shock": {"correl": 0.3}})
    with pytest.raises(gb.ConfigError, match=r"config\.fronteer"):
        gb.parse_config({"fronteer": {}})
    with pytest.raises(gb.ConfigError, match=r"calibration\.ds3_total_cost"):
        gb.parse_config({"calibration": {"ds3_total_cost": 1.0}})
    with pytest.raises(gb.ConfigError, match=r"config\.output_dir"):
        gb.parse_config({"output_dir": "x"})


def test_invalid_values_rejected():
    with pytest.raises(gb.ConfigError, match="correlation"):
        gb.parse_config({"shock": {"correlation": 1.0}})
    with pytest.raises(gb.ConfigError, match="n_scenarios"):
        gb.parse_config({"n_scenarios": 0})
    with pytest.raises(gb.ConfigError, match="tier_counts"):
        gb.parse_config({"calibration": {"tier_counts": [1, 175]}})
    with pytest.raises(gb.ConfigError, match="threshold_fraction"):
        gb.parse_config({"loss": {"threshold_fraction": 0.0}})
    with pytest.raises(gb.ConfigError, match="applies_to"):
        gb.parse_config({"shock": {"applies_to": "everything"}})
    with pytest.raises(gb.ConfigError, match="expected true/false"):
        gb.parse_config({"loss": {"deposit_insurance": "yes"}})


def test_grid_parsing():
    config = gb.parse_config({"grid": {"per_big": [0.0, 0.01, 0.02]}})
    assert config.grid.per_big == (0.0, 0.01, 0.02)
    config = gb.parse_config(
        {"grid": {"per_big_start": 0.0, "per_big_stop": 0.02, "per_big_step": 0.01}}
    )
    assert config.grid.per_big == (0.0, 0.01, 0.02)
    with pytest.raises(gb.ConfigError, match="sorted"):
        gb.parse_config({"grid": {"per_big": [0.02, 0.01]}})
    with pytest.raises(gb.ConfigError, match=r"grid\.per_massive_cap"):
        gb.GridSpec(per_massive_cap=float("inf"))
    for range_key in ("per_big_start", "per_big_stop", "per_big_step"):
        with pytest.raises(gb.ConfigError, match="not both"):
            gb.parse_config({"grid": {"per_big": [0.0], range_key: 0.01}})


def test_shock_and_loss_blocks_flow_through():
    config = gb.parse_config(
        {
            "shock": {"correlation": 0.1, "beta_a": 2, "beta_b": 5.0,
                      "applies_to": "all_assets", "exempt_central": True},
            "loss": {"deposit_insurance": True, "threshold_fraction": 0.02,
                     "confidence": 0.05, "bond_recovery": 0.25},
            "n_scenarios": 30,
            "seed": 7,
        }
    )
    assert config == gb.RunConfig(
        shock=gb.ShockParams(correlation=0.1, beta_a=2.0, beta_b=5.0,
                             applies_to=gb.ShockTarget.ALL_ASSETS, exempt_central=True),
        loss=gb.LossConfig(deposit_insurance=True, threshold_fraction=0.02,
                           confidence=0.05, bond_recovery=0.25),
        n_scenarios=30,
        seed=7,
    )
    # the threshold is a fraction of the network's GGP, wherever that is set
    network = gb.build_network(config.calibration)
    assert gb.loss_threshold(network, config.loss) == pytest.approx(0.02 * 6090.0)


NON_FINITE = [
    ({"shock": {"beta_a": float("inf")}}, r"shock\.beta_a"),
    ({"loss": {"confidence": float("nan")}}, r"loss\.confidence"),
    ({"calibration": {"ggp_endor": float("inf")}}, r"calibration\.ggp_endor"),
    ({"calibration": {"us_gdp": [[1945, float("nan")]]}}, r"calibration\.us_gdp\[0\]"),
    ({"calibration": {"capital_buffer_per_tier": [0.0, float("-inf"), 0.05]}},
     r"calibration\.capital_buffer_per_tier"),
    ({"grid": {"per_massive_cap": float("inf")}}, r"grid\.per_massive_cap"),
    ({"grid": {"per_big": [0.0, float("inf")]}}, r"grid\.per_big"),
    ({"grid": {"per_big_stop": float("nan"), "per_big_step": 0.01}}, r"grid\.per_big_stop"),
    ({"shock": {"correlation": 10 ** 400}}, r"shock\.correlation"),
]


@pytest.mark.parametrize("data,location", NON_FINITE)
def test_non_finite_numbers_rejected_before_output(tmp_path, capsys, data, location):
    with pytest.raises(gb.ConfigError, match=location):
        gb.parse_config(data)
    # json writes these as the non-standard NaN / Infinity literals
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    for command in ("calibrate", "simulate", "frontier"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    with pytest.raises(gb.ConfigError, match="not found"):
        gb.load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(gb.ConfigError, match="invalid JSON"):
        gb.load_config(bad)


# --- CLI --------------------------------------------------------------------

def test_cli_calibrate_default(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "17501" in printed
    assert "515.5" in printed
    summary = read_long_csv(out / "network_summary.csv")
    assert summary[("galaxy", "outstanding_debt")] == "515.5"
    assert summary[("galaxy", "bank_count")] == "17501"
    assert summary[("galaxy", "ggp")] == "6090"
    assert summary[("central", "count")] == "1"


def test_cli_calibrate_paid_off(tmp_path):
    config = write_config(
        tmp_path, {"calibration": {"ds1_paid_fraction": 1.0, "ds2_total_cost": 0.0}}
    )
    out = tmp_path / "cal0"
    assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    summary = read_long_csv(out / "network_summary.csv")
    assert summary[("galaxy", "outstanding_debt")] == "0"


def test_cli_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, {"shock": {"correl": 0.3}})
    assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "shock.correl" in capsys.readouterr().err


def test_cli_overwrite_protection(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == 0
    assert main(["calibrate", "--out", str(out)]) == 4
    assert "overwrite" in capsys.readouterr().err
    assert main(["calibrate", "--out", str(out), "--overwrite"]) == 0


def test_cli_simulate_deterministic_and_thread_invariant(tmp_path):
    args = ["simulate", "--scenarios", "250", "--seed", "11"]
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--out", str(out3), "--threads", "4"]) == 0
    ref = (out1 / "losses.csv").read_bytes()
    assert (out2 / "losses.csv").read_bytes() == ref
    assert (out3 / "losses.csv").read_bytes() == ref


def test_cli_simulate_reports(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenarios", "200", "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        rows = [r for r in fh if not r.startswith("#")]
    summary = {row["metric"]: float(row["value"]) for row in csv.DictReader(rows)}
    assert summary["green_line"] == pytest.approx(515.5)
    assert round(summary["green_line_ggp_fraction"], 4) == 0.0846
    assert summary["n_scenarios"] == 200
    with open(out / "histogram.csv") as fh:
        rows = [r for r in fh if not r.startswith("#")]
    hist = list(csv.DictReader(rows))
    assert len(hist) == 100
    assert sum(int(r["count_no_insurance"]) for r in hist) == 200
    assert sum(int(r["count_insurance"]) for r in hist) == 200
    with open(out / "losses.csv") as fh:
        rows = [r for r in fh if not r.startswith("#")]
    losses = list(csv.DictReader(rows))
    assert [int(r["scenario_index"]) for r in losses] == list(range(200))


def test_cli_simulate_insurance_dominates(tmp_path):
    base = ["--scenarios", "150", "--seed", "3"]
    plain, insured = tmp_path / "plain", tmp_path / "ins"
    assert main(["simulate", *base, "--out", str(plain)]) == 0
    assert main(["simulate", *base, "--insurance", "--out", str(insured)]) == 0

    def mean_loss(path):
        with open(path / "summary.csv") as fh:
            rows = [r for r in fh if not r.startswith("#")]
        stats = {row["metric"]: float(row["value"]) for row in csv.DictReader(rows)}
        return stats

    stats_plain = mean_loss(plain)
    stats_ins = mean_loss(insured)
    # both runs expose both accounting views; the insured view never exceeds
    assert stats_plain["mean_loss_insurance"] <= stats_plain["mean_loss_no_insurance"]
    assert stats_ins["mean_loss_insurance"] == pytest.approx(
        stats_plain["mean_loss_insurance"]
    )


def test_cli_simulate_bailout_lowers_loss(tmp_path):
    base = ["--scenarios", "120", "--seed", "5"]
    none, big = tmp_path / "none", tmp_path / "big"
    assert main(["simulate", *base, "--out", str(none)]) == 0
    assert main(["simulate", *base, "--bailout-big", "0.6", "--out", str(big)]) == 0

    def stats(path):
        with open(path / "summary.csv") as fh:
            rows = [r for r in fh if not r.startswith("#")]
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(rows)}

    assert stats(big)["mean_loss_no_insurance"] < stats(none)["mean_loss_no_insurance"]


def test_cli_frontier_trivial_threshold(tmp_path):
    config = write_config(
        tmp_path,
        {
            "loss": {"threshold_fraction": 0.9},
            "grid": {"per_big": [0.0, 0.01]},
            "n_scenarios": 50,
        },
    )
    out = tmp_path / "front"
    assert main(["frontier", "--config", str(config), "--criterion", "all",
                 "--out", str(out)]) == 0
    with open(out / "minima.csv") as fh:
        rows = [r for r in fh if not r.startswith("#")]
    minima = {row["criterion"]: row for row in csv.DictReader(rows)}
    assert set(minima) == {"expectation", "var", "avar"}
    for row in minima.values():
        assert float(row["total"]) == 0.0
        # recombination identity
        total = 175 * float(row["per_massive"]) + 17_325 * float(row["per_big"])
        assert abs(float(row["total"]) - total) <= 0.001


def test_cli_frontier_gaps_exit_code(tmp_path):
    config = write_config(
        tmp_path,
        {
            "grid": {"per_big": [0.0], "per_massive_cap": 0.1},
            "n_scenarios": 30,
        },
    )
    out = tmp_path / "gaps"
    assert main(["frontier", "--config", str(config), "--criterion", "expectation",
                 "--out", str(out)]) == 3
    with open(out / "frontier.csv") as fh:
        rows = [r for r in fh if not r.startswith("#")]
    points = list(csv.DictReader(rows))
    assert points[0]["attainable"] == "false"
    assert points[0]["minimal_per_massive"] == ""


def test_cli_non_empty_out_fails_before_computing(tmp_path, monkeypatch, capsys):
    import galbank.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "simulate_records", never)
    monkeypatch.setattr(cli, "bailout_frontier", never)
    out = tmp_path / "full"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    for command in ("simulate", "frontier"):
        assert main([command, "--out", str(out)]) == 4
        assert "overwrite" in capsys.readouterr().err
    # a config error still wins over the I/O error
    config = write_config(tmp_path, {"shock": {"correl": 0.3}})
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert (out / "keep.txt").read_text() == "x"


@pytest.mark.parametrize("flag", ["--bailout-massive", "--bailout-big"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_bad_bailout_is_config_error(tmp_path, monkeypatch, capsys, flag, value):
    import galbank.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("computed with an invalid bailout")

    monkeypatch.setattr(cli, "simulate_records", never)
    out = tmp_path / "bad"
    assert main(["simulate", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite and non-negative" in err
    assert not out.exists()
