import json
import re
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import pytest

import galbank as gb
from galbank import cli, config as config_module, report
from galbank.cli import main
from galbank.config import DEFAULT_SEED
from harness import (ACCEPTANCE, ACCEPTANCE_PATH, ROOT, assert_every_command_rejects, read_csv,
                     record_calls, workloads, write_config)

README = ROOT / "README.md"


def read_long_csv(path: Path) -> dict:
    return {(row["scope"], row["metric"]): row["value"] for row in read_csv(path)}


def simulate_summary(tmp_path: Path, name: str, *flags) -> dict:
    """`galbank simulate <flags>` into tmp_path/name: its summary.csv metrics."""
    out = tmp_path / name
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    return {row["metric"]: float(row["value"]) for row in read_csv(out / "summary.csv")}


# --- config parsing ---------------------------------------------------------

def test_empty_config_is_headline_run():
    config = gb.parse_config({})
    assert config == gb.RunConfig(
        calibration=gb.CalibrationParams(), shock=gb.ShockParams(), loss=gb.LossConfig(),
        n_scenarios=10_000, seed=DEFAULT_SEED, grid=gb.GridSpec(),
    )
    assert config.shock.correlation == 0.25
    shock = config.shock
    assert shock.beta_a / (shock.beta_a + shock.beta_b) == pytest.approx(0.2)
    assert not config.loss.deposit_insurance
    assert config.loss.threshold_fraction == 0.01


# a valid value other than the default for every field of every block, and
# for both top-level integers, in Python form
NON_DEFAULT_RUN = {
    "calibration": {
        "ds1_total_cost": 100.0, "ds1_paid_fraction": 0.25, "ds2_total_cost": 300.0,
        "ggp_endor": 5000.0, "tier_counts": (1, 10, 50),
        "capital_buffer_per_tier": (0.0, 0.1, 0.05), "banking_sector_ggp_fraction": 0.5,
    },
    "shock": {"correlation": 0.1, "beta_a": 2.0, "beta_b": 5.0,
              "applies_to": gb.ShockTarget.ALL_ASSETS, "exempt_central": True},
    "loss": {"deposit_insurance": True, "threshold_fraction": 0.02, "confidence": 0.05,
             "bond_recovery": 0.25},
    "grid": {"per_big": (0.0, 0.01), "per_massive_cap": 4.0, "resolution": 0.01},
    "n_scenarios": 30,
    "seed": 7,
}
NON_DEFAULT_CALIBRATION = NON_DEFAULT_RUN["calibration"]


def test_every_config_field_round_trips():
    default = gb.RunConfig()
    assert NON_DEFAULT_RUN.keys() == {f.name for f in fields(default)}
    direct = {}
    for name, given in NON_DEFAULT_RUN.items():
        value = getattr(default, name)
        if is_dataclass(value):
            assert given.keys() == {f.name for f in fields(value)}, name
            assert all(given[key] != getattr(value, key) for key in given), name
            direct[name] = type(value)(**given)
        else:
            assert given != value, name
            direct[name] = given
    document = json.loads(json.dumps(NON_DEFAULT_RUN, default=lambda member: member.value))
    assert gb.parse_config(document) == gb.RunConfig(**direct)


@pytest.mark.parametrize("block,cls", [("shock", gb.ShockParams), ("loss", gb.LossConfig),
                                       ("calibration", gb.CalibrationParams),
                                       ("grid", gb.GridSpec)])
def test_block_keys_are_dataclass_fields(block, cls):
    # a block reads every field of its dataclass, and nothing else
    assert type(getattr(gb.RunConfig(), block)) is cls
    given = NON_DEFAULT_RUN[block]
    assert given.keys() == {f.name for f in fields(cls)}
    document = json.loads(json.dumps({block: given}, default=lambda member: member.value))
    assert gb.parse_config(document) == gb.RunConfig(**{block: cls(**given)})
    with pytest.raises(gb.ConfigError, match=rf"^{block}\.extra: unknown field"):
        gb.parse_config({block: {**document[block], "extra": 1}})


def test_block_field_without_a_reader_is_named(monkeypatch):
    @dataclass(frozen=True)
    class Odd:
        phase: complex = 0j

    @dataclass(frozen=True)
    class OddRun(gb.RunConfig):
        odd: Odd = field(default_factory=Odd)

    monkeypatch.setattr(config_module, "RunConfig", OddRun)
    # the whole schema is read, whether or not the document names the field
    for data in ({}, {"odd": {"phase": 1.0}}):
        with pytest.raises(TypeError, match=r"^odd\.phase: no config reader"):
            gb.parse_config(data)


def test_blocks_are_checked_before_the_top_level_integers():
    for seed in (-1, "7"):
        with pytest.raises(gb.ConfigError, match=r"^shock: correlation must lie"):
            gb.parse_config({"seed": seed, "shock": {"correlation": 2.0}})
        with pytest.raises(gb.ConfigError, match=r"^loss\.confidence: expected a finite"):
            gb.parse_config({"loss": {"confidence": "high"}, "seed": seed})


def test_readme_example_config_is_the_run_config_it_documents():
    section = re.search(r"^## Config\n(.*?)^## ", README.read_text(), re.S | re.M)
    assert section, "README has no 'Config' section"
    example = re.search(r"```json\n(.*?)```", section.group(1), re.S)
    assert example, "README's 'Config' section has no JSON example"
    document = json.loads(example.group(1))
    # it names every field of every block and every top-level field
    default = gb.RunConfig()
    assert document.keys() == {f.name for f in fields(default)}
    for name, value in document.items():
        if is_dataclass(getattr(default, name)):
            assert value.keys() == {f.name for f in fields(getattr(default, name))}, name
    # every value it shows is the default but the grid's per_big list
    assert gb.parse_config(document) == gb.RunConfig(
        grid=gb.GridSpec(per_big=(0.0, 0.02, 0.04, 0.06, 0.08)))


def test_committed_configs_load_and_the_benchmark_copy_matches():
    # every documented run under configs/ loads; the benchmark's workloads
    # keep their own copy of the acceptance run, which must not drift from it
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert ACCEPTANCE_PATH in paths
    for path in paths:
        gb.load_config(path)
    frontier = gb.parse_config(workloads.WORKLOADS["frontier-acceptance"].config)
    bailout = gb.parse_config(workloads.WORKLOADS["simulate-bailout"].config)
    for block in ("calibration", "shock", "loss", "grid"):
        assert getattr(frontier, block) == getattr(ACCEPTANCE, block), block
    for block in ("calibration", "shock"):
        assert getattr(bailout, block) == getattr(ACCEPTANCE, block), block


def test_load_config_none_gives_defaults():
    assert gb.load_config(None) == gb.RunConfig()


def test_unknown_field_rejected_with_location(tmp_path, capsys):
    with pytest.raises(gb.ConfigError, match=r"shock\.correl"):
        gb.parse_config({"shock": {"correl": 0.3}})
    with pytest.raises(gb.ConfigError, match=r"config\.fronteer"):
        gb.parse_config({"fronteer": {}})
    with pytest.raises(gb.ConfigError, match=r"calibration\.ds3_total_cost"):
        gb.parse_config({"calibration": {"ds3_total_cost": 1.0}})
    with pytest.raises(gb.ConfigError, match=r"config\.output_dir"):
        gb.parse_config({"output_dir": "x"})
    # calibration inputs that no output read, now removed
    for key, value in (("growth_rate", 0.02), ("manhattan_expenditures", [[1942, 16.1]]),
                       ("us_gdp", [[1942, 182.5]])):
        with pytest.raises(gb.ConfigError, match=rf"calibration\.{key}: unknown field"):
            gb.parse_config({"calibration": {key: value}})
    # the per_big range, now removed: the explicit list is the one spelling
    for key in ("per_big_start", "per_big_stop", "per_big_step"):
        data = {"grid": {key: 0.01}}
        with pytest.raises(gb.ConfigError, match=rf"grid\.{key}: unknown field"):
            gb.parse_config(data)
        assert_every_command_rejects(tmp_path, capsys, ["--config", write_config(tmp_path, data)],
                                     rf"\Aconfig error: grid\.{key}: unknown field")


@pytest.mark.parametrize("name", [f.name for f in fields(gb.CalibrationParams)])
def test_every_calibration_field_reaches_an_output(tmp_path, name):
    default = gb.CalibrationParams()
    params = gb.CalibrationParams(**{name: NON_DEFAULT_CALIBRATION[name]})
    assert getattr(params, name) != getattr(default, name)
    summaries = []
    for p in (default, params):
        path = tmp_path / f"{len(summaries)}.csv"
        report.write_network_summary(path, gb.build_network(p), p)
        summaries.append(path.read_bytes())
    assert gb.build_network(params) != gb.build_network(default) or \
        summaries[0] != summaries[1]


def test_invalid_values_rejected():
    for data, message in (
        ({"shock": {"correlation": 1.0}}, "correlation"),
        ({"n_scenarios": 0}, "n_scenarios"),
        ({"calibration": {"tier_counts": [1, 175]}}, "tier_counts"),
        ({"loss": {"threshold_fraction": 0.0}}, "threshold_fraction"),
        ({"shock": {"applies_to": "everything"}}, "applies_to"),
        ({"loss": {"deposit_insurance": "yes"}}, "expected true/false"),
        ({"loss": {"confidence": 1.0}}, "loss: confidence must lie"),
        ({"loss": {"bond_recovery": 1.5}}, "loss: bond_recovery must lie"),
        ({"grid": {"resolution": 0.0}}, "grid: resolution must be"),
        ({"calibration": {"ggp_endor": -1.0}}, "calibration: ggp_endor must be positive"),
    ):
        with pytest.raises(gb.ConfigError, match=message):
            gb.parse_config(data)


def test_grid_parsing():
    config = gb.parse_config({"grid": {"per_big": [0.0, 0.01, 0.02]}})
    assert config.grid.per_big == (0.0, 0.01, 0.02)
    with pytest.raises(gb.ConfigError, match="grid: per_big must be sorted"):
        gb.parse_config({"grid": {"per_big": [0.02, 0.01]}})
    with pytest.raises(ValueError, match="per_massive_cap"):
        gb.GridSpec(per_massive_cap=float("inf"))


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
    ({"calibration": {"ds1_paid_fraction": float("nan")}}, r"calibration\.ds1_paid_fraction"),
    ({"calibration": {"capital_buffer_per_tier": [0.0, float("-inf"), 0.05]}},
     r"calibration\.capital_buffer_per_tier"),
    ({"grid": {"per_massive_cap": float("inf")}}, r"grid\.per_massive_cap"),
    ({"grid": {"per_big": [0.0, float("inf")]}}, r"grid\.per_big"),
    ({"grid": {"resolution": float("nan")}}, r"grid\.resolution"),
    ({"shock": {"correlation": 10 ** 400}}, r"shock\.correlation"),
]


@pytest.mark.parametrize("data,location", NON_FINITE)
def test_non_finite_numbers_rejected_before_output(tmp_path, capsys, data, location):
    with pytest.raises(gb.ConfigError, match=location):
        gb.parse_config(data)
    # json writes these as the non-standard NaN / Infinity literals
    assert_every_command_rejects(tmp_path, capsys, ["--config", write_config(tmp_path, data)],
                                 rf"\Aconfig error: {location}.*finite")


@pytest.mark.parametrize("counts,tier", [([1, 1, 1], "MASSIVE"), ([1, 175, 1], "BIG")])
def test_single_bank_tier_with_same_tier_debt_is_config_error(tmp_path, capsys, counts,
                                                              tier):
    data = {"calibration": {"tier_counts": counts}}
    with pytest.raises(gb.ConfigError, match=rf"tier_counts .* tier {tier} 1 bank"):
        gb.parse_config(data)
    assert_every_command_rejects(tmp_path, capsys, ["--config", write_config(tmp_path, data)],
                                 rf"\Aconfig error: calibration: tier_counts .*tier {tier} 1 bank"
                                 r".*needs at least 2")


def test_several_central_banks_are_config_error(tmp_path, capsys):
    # each would get two thirds of the defaulted debt and its own 2,500 Q
    # outside obligation
    data = {"calibration": {"tier_counts": [2, 175, 17325]}}
    message = ("calibration: tier_counts gives tier CENTRAL 2 banks; "
               "the calibration has one central bank")
    with pytest.raises(gb.ConfigError, match=message):
        gb.parse_config(data)
    assert_every_command_rejects(tmp_path, capsys, ["--config", write_config(tmp_path, data)],
                                 rf"\Aconfig error: {re.escape(message)}\n\Z")


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"seed": 1}\xff\xfe')
    with pytest.raises(gb.ConfigError) as info:
        gb.load_config(path)
    assert str(info.value).startswith(f"config: {path} is not UTF-8 text")
    assert_every_command_rejects(
        tmp_path, capsys, ["--config", str(path)],
        rf"\Aconfig error: config: {re.escape(str(path))} is not UTF-8 text")


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
    config = write_config(tmp_path, {"calibration": {"ds1_paid_fraction": 1.0,
                                                      "ds2_total_cost": 0.0}})
    out = tmp_path / "cal0"
    assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    summary = read_long_csv(out / "network_summary.csv")
    assert summary[("galaxy", "outstanding_debt")] == "0"


# finite inputs whose calibration arithmetic leaves the finite range, each
# with the per-bank amount that first reaches it
@pytest.mark.parametrize("calibration,amount", [
    ({"capital_buffer_per_tier": [1e308, 0.05, 0.05]}, "external_assets"),
    ({"ds1_total_cost": 1.7e308, "ds2_total_cost": 1.7e308}, "bond_holdings_face"),
], ids=["buffer", "debt"])
def test_calibration_that_overflows_is_config_error(tmp_path, capsys, calibration, amount):
    assert_every_command_rejects(
        tmp_path, capsys, ["--config", write_config(tmp_path, {"calibration": calibration})],
        rf"\Aconfig error: calibration: {amount} must be finite and non-negative, got inf\n\Z")


def test_cli_default_out_is_a_fresh_stamped_directory(tmp_path, monkeypatch, capsys):
    # without --out each run writes runs/<command>-<stamp>, suffixed -1, -2, ...
    # when a run in the same second already took the name
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(time, "strftime", lambda fmt: "20260101-000000")
    for name in ("calibrate-20260101-000000", "calibrate-20260101-000000-1"):
        assert main(["calibrate"]) == 0
        assert f"wrote {Path('runs') / name / 'network_summary.csv'}" in capsys.readouterr().out
        assert (tmp_path / "runs" / name / "network_summary.csv").is_file()
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert_every_command_rejects(tmp_path, capsys,
                                 ["--config", write_config(tmp_path, {"shock": {"correl": 0.3}})],
                                 r"\Aconfig error: shock\.correl: unknown field")


def test_cli_overwrite_protection(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == 0
    assert main(["calibrate", "--out", str(out)]) == 4
    assert "overwrite" in capsys.readouterr().err
    assert main(["calibrate", "--out", str(out), "--overwrite"]) == 0


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_cli_seed_outside_64_bits_is_config_error(tmp_path, capsys, seed):
    # the shock streams take the seed as an unsigned 64-bit key; -1 used to
    # draw the scenarios of 2**64 - 1
    with pytest.raises(gb.ConfigError, match=r"config\.seed: must lie in \[0, 2\*\*64\)"):
        gb.parse_config({"seed": seed})
    assert_every_command_rejects(
        tmp_path, capsys, ["--seed", str(seed)],
        re.escape(f"config error: --seed: config.seed: must lie in [0, 2**64), got {seed}"))


@pytest.mark.parametrize("flag,value,field", [("--scenarios", "0", "n_scenarios"),
                                              ("--scenarios", "-3", "n_scenarios"),
                                              ("--seed", str(2**64), "seed")])
def test_cli_override_error_names_its_flag(tmp_path, capsys, flag, value, field):
    # the range is RunConfig's; the message begins with the flag that set the
    # value, not only the config field it lands in
    assert_every_command_rejects(tmp_path, capsys, [flag, value],
                                 rf"\Aconfig error: {flag}: config\.{field}: ")


def test_cli_seed_range_ends_run_apart(tmp_path):
    losses = []
    for seed in (0, 2**64 - 1):
        out = tmp_path / str(seed)
        assert main(["simulate", "--seed", str(seed), "--scenarios", "2",
                     "--out", str(out)]) == 0
        losses.append((out / "losses.csv").read_bytes())
    assert losses[0] != losses[1]


@pytest.mark.parametrize("threads,message", [("0", "must be at least 1, got 0"),
                                             ("-2", "must be at least 1, got -2"),
                                             ("abc", "expected an integer, got 'abc'")],
                         ids=["0", "-2", "abc"])
def test_cli_threads_below_one_is_usage_error(tmp_path, capsys, threads, message):
    assert_every_command_rejects(tmp_path, capsys, ["--threads", threads],
                                 re.escape(f"argument --threads: {message}"), usage=True)


def test_cli_unknown_criterion_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["frontier", "--criterion", "sharpe", "--out", str(out)])
    assert info.value.code == 2
    assert ("argument --criterion: invalid choice: 'sharpe' "
            "(choose from 'expectation', 'var', 'avar', 'all')") in capsys.readouterr().err
    assert not out.exists()


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
    summary = simulate_summary(tmp_path, "sim", "--scenarios", "200")
    out = tmp_path / "sim"
    assert summary["green_line"] == pytest.approx(515.5)
    assert round(summary["green_line_ggp_fraction"], 4) == 0.0846
    assert summary["n_scenarios"] == 200
    hist = read_csv(out / "histogram.csv")
    assert len(hist) == 100
    assert sum(int(r["count_no_insurance"]) for r in hist) == 200
    assert sum(int(r["count_insurance"]) for r in hist) == 200
    losses = read_csv(out / "losses.csv")
    assert [int(r["scenario_index"]) for r in losses] == list(range(200))


def test_cli_simulate_insurance_dominates(tmp_path):
    base = ["--scenarios", "150", "--seed", "3"]
    stats_plain = simulate_summary(tmp_path, "plain", *base)
    stats_ins = simulate_summary(tmp_path, "ins", *base, "--insurance")
    # both runs expose both accounting views; the insured view never exceeds
    assert stats_plain["mean_loss_insurance"] <= stats_plain["mean_loss_no_insurance"]
    assert stats_ins["mean_loss_insurance"] == pytest.approx(
        stats_plain["mean_loss_insurance"]
    )


def test_cli_simulate_bailout_lowers_loss(tmp_path):
    base = ["--scenarios", "120", "--seed", "5"]
    none = simulate_summary(tmp_path, "none", *base)
    big = simulate_summary(tmp_path, "big", *base, "--bailout-big", "0.6")
    assert big["mean_loss_no_insurance"] < none["mean_loss_no_insurance"]


def test_cli_frontier_trivial_threshold(tmp_path):
    config = write_config(tmp_path, {"loss": {"threshold_fraction": 0.9},
                                     "grid": {"per_big": [0.0, 0.01]}, "n_scenarios": 50})
    out = tmp_path / "front"
    assert main(["frontier", "--config", str(config), "--criterion", "all",
                 "--out", str(out)]) == 0
    minima = {row["criterion"]: row for row in read_csv(out / "minima.csv")}
    assert set(minima) == {"expectation", "var", "avar"}
    for row in minima.values():
        assert float(row["total"]) == 0.0
        # recombination identity
        total = 175 * float(row["per_massive"]) + 17_325 * float(row["per_big"])
        assert abs(float(row["total"]) - total) <= 0.001


def test_cli_frontier_gaps_exit_code(tmp_path):
    config = write_config(tmp_path, {"grid": {"per_big": [0.0], "per_massive_cap": 0.1},
                                     "n_scenarios": 30})
    out = tmp_path / "gaps"
    assert main(["frontier", "--config", str(config), "--criterion", "expectation",
                 "--out", str(out)]) == 3
    points = read_csv(out / "frontier.csv")
    assert points[0]["attainable"] == "false"
    assert points[0]["minimal_per_massive"] == ""


def test_cli_non_empty_out_fails_before_computing(tmp_path, monkeypatch, capsys):
    # a run that computed would raise `Stop` out of `main`
    for name in ("simulate_records", "bailout_frontier"):
        record_calls(monkeypatch, cli, name, stop=True)
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
    record_calls(monkeypatch, cli, "simulate_records", stop=True)  # raises if it computes
    out = tmp_path / "bad"
    assert main(["simulate", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite and non-negative" in err
    assert not out.exists()
