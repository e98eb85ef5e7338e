import json
import math
import os

import pytest

from xccy.cli import run

MODEL_DOC = {
    "currencies": [
        {
            "name": "EUR",
            "domestic": True,
            "rates": {
                "unsecured": 0.02,
                "collateral_borrow": 0.015,
                "collateral_lend": 0.015,
                "cash_post_funding": 0.02,
                "coll_post_funding": 0.02,
            },
        },
        {
            "name": "USD",
            "rates": {
                "unsecured": 0.03,
                "collateral_borrow": 0.022,
                "collateral_lend": 0.022,
                "cash_post_funding": 0.02,
                "coll_post_funding": 0.03,
            },
        },
    ],
    "assets": [
        {
            "label": "EQ",
            "currency": "EUR",
            "s0": 100.0,
            "sigma": 0.2,
            "dividend_yield": 0.01,
            "repo_rate": {"knots": [0.0, 0.5], "values": [0.015, 0.02]},
        }
    ],
    "fx": [{"currency": "USD", "x0": 0.9, "sigma": 0.1}],
    "correlation": {"labels": ["EQ", "fx:USD"], "matrix": [[1.0, 0.3], [0.3, 1.0]]},
}

TRADE_DOC = {
    "trade_id": "T1",
    "contract": {"currency": "EUR", "flows": [[1.0, -1.0]]},
    "collateral": {
        "currency": "USD",
        "form": "cash",
        "convention": "rehypothecation",
        "delta1": 0.0,
        "delta2": 0.0,
        "mode": {"exogenous": {"functional": "constant", "params": {"level": 1.0}}},
    },
}


@pytest.fixture
def docs(tmp_path):
    model = tmp_path / "model.json"
    trade = tmp_path / "trade.json"
    model.write_text(json.dumps(MODEL_DOC))
    trade.write_text(json.dumps(TRADE_DOC))
    return model, trade, tmp_path


def test_validate_ok(docs, capsys):
    model, _, _ = docs
    assert run(["validate", "--model", str(model)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_failure_exits_one(tmp_path, capsys):
    bad = dict(MODEL_DOC)
    bad["correlation"] = {"labels": ["EQ", "fx:USD"], "matrix": [[1.0, 1.5], [1.5, 1.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", "--model", str(path)]) == 1
    assert "NonPsdCorrelation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["validate"], ["check", "--paths", "2000", "--steps", "4"]], ids=["validate", "check"]
)
def test_nan_rate_exits_one_naming_the_field(tmp_path, capsys, command):
    # json reads NaN; before it was rejected, check reported NaN means as passed
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(MODEL_DOC).replace('"unsecured": 0.02', '"unsecured": NaN'))
    assert run([command[0], "--model", str(path), *command[1:]]) == 1
    assert "violation: UnboundedRate [rates[EUR].unsecured]" in capsys.readouterr().err


def _edited_model(section, **changes):
    doc = json.loads(json.dumps(MODEL_DOC))
    doc[section][0].update(changes)
    return doc


# json reads Infinity, and "not sigma > 0" is false for it; each check names its field
NON_FINITE_MODELS = {
    "asset sigma": ("NegativeVolatility [assets[EQ].sigma]", _edited_model("assets", sigma=math.inf)),
    "asset spot": ("NonPositiveSpot [assets[EQ].s0]", _edited_model("assets", s0=math.inf)),
    "fx level": ("NonPositiveFx [fx[USD].x0]", _edited_model("fx", x0=math.inf)),
    "fx sigma": ("NegativeVolatility [fx[USD].sigma]", _edited_model("fx", sigma=math.inf)),
}


@pytest.mark.parametrize("command", ["price", "bsde"])
@pytest.mark.parametrize("case", list(NON_FINITE_MODELS))
def test_non_finite_model_value_exits_one_naming_the_field(docs, capsys, case, command):
    # unchecked, an infinite x0 priced to NaN with exit 0 and an infinite sigma crashed bsde in an SVD
    _, trade, tmp = docs
    finding, doc = NON_FINITE_MODELS[case]
    path = tmp / "non_finite_model.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--model", str(path), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 1
    assert f"violation: {finding}" in capsys.readouterr().err


def _exogenous(functional, params):
    return {"collateral": {**TRADE_DOC["collateral"], "mode": {"exogenous": {"functional": functional, "params": params}}}}


# json reads NaN and Infinity; each field names itself in the error line
NON_FINITE_TRADES = {
    "flow amount": ("contract.flows", {"contract": {"currency": "EUR", "flows": [[1.0, math.nan]]}}),
    "flow time": ("contract.flows", {"contract": {"currency": "EUR", "flows": [[math.inf, -1.0]]}}),
    "initial flow": (
        "contract.initial_flow",
        {"contract": {"currency": "EUR", "flows": [[1.0, -1.0]], "initial_flow": math.nan}},
    ),
    "constant level": ("collateral.mode.exogenous.params.level", _exogenous("constant", {"level": math.nan})),
    # bsde used to write "delta1": Infinity into report.json, which is not JSON
    "haircut": ("collateral.delta1", {"collateral": {**TRADE_DOC["collateral"], "delta1": math.inf}}),
    "asset fraction": (
        "collateral.mode.exogenous.params.fraction",
        _exogenous("fraction_of_asset", {"asset": "EQ", "fraction": -math.inf}),
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_TRADES))
def test_non_finite_trade_value_exits_one_naming_the_field(docs, capsys, case):
    # unchecked, such a value gives "price": NaN and exit 0
    model, _, tmp = docs
    field, edit = NON_FINITE_TRADES[case]
    trade = tmp / "non_finite.json"
    trade.write_text(json.dumps({**TRADE_DOC, **edit}))
    assert run(["price", "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")


def test_missing_file_exits_three(tmp_path, capsys):
    assert run(["validate", "--model", str(tmp_path / "nope.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_malformed_json_exits_three(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run(["validate", "--model", str(path)]) == 3


def test_bad_usage_exits_one(docs, capsys):
    model, _, _ = docs
    assert run(["price", "--model", str(model)]) == 1  # --trade missing
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_one(docs, capsys, workers):
    model, _, _ = docs
    assert run(["check", "--model", str(model), "--paths", "10", "--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("checkpoints", ["0", "-1"])
def test_nonpositive_checkpoints_exit_one(docs, capsys, checkpoints):
    model, _, _ = docs
    assert run(["check", "--model", str(model), "--paths", "10", "--checkpoints", checkpoints]) == 1
    assert "--checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
def test_meaningless_threshold_exits_one(docs, capsys, threshold):
    model, _, _ = docs
    assert run(["check", "--model", str(model), "--paths", "10", f"--threshold={threshold}"]) == 1
    assert "threshold" in capsys.readouterr().err


def test_meaningless_threshold_exits_before_simulating(docs, capsys, monkeypatch):
    model, _, _ = docs
    monkeypatch.setattr("xccy.cli.simulate", _refuse_to_simulate)
    assert run(["check", "--model", str(model), "--paths", "400000", "--threshold", "0"]) == 1
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["bsde"], ["price", "--mode", "full-collateral"]])
def test_collateral_currency_the_model_lacks_exits_one(docs, capsys, command):
    model, trade, _ = docs
    doc = json.loads(json.dumps(TRADE_DOC))
    doc["collateral"]["currency"] = "GBP"
    trade.write_text(json.dumps(doc))
    assert run(command + ["--model", str(model), "--trade", str(trade), "--paths", "100", "--steps", "2"]) == 1
    assert "error: GBP" in capsys.readouterr().err


def test_price_repeated_runs_are_byte_identical(docs):
    model, trade, tmp = docs
    out = tmp / "out"
    args = ["price", "--model", str(model), "--trade", str(trade),
            "--paths", "5000", "--seed", "7", "--out", str(out)]
    assert run(args) == 0
    assert run(args) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 3  # header + 2 identical rows
    assert rows[1] == rows[2]


def test_price_workers_do_not_change_output(docs):
    model, trade, tmp = docs
    out1, out8 = tmp / "w1", tmp / "w8"
    base = ["price", "--model", str(model), "--trade", str(trade), "--paths", "4000", "--seed", "3"]
    assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run(base + ["--workers", "8", "--out", str(out8)]) == 0
    assert (out1 / "report.json").read_bytes() == (out8 / "report.json").read_bytes()
    assert (out1 / "results.csv").read_bytes() == (out8 / "results.csv").read_bytes()


def test_full_collateral_mode_uses_closed_form(docs):
    model, trade, tmp = docs
    out = tmp / "fc"
    assert run(["price", "--model", str(model), "--trade", str(trade),
                "--mode", "full-collateral", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # q(USD) = (0.02-0.03)-(0.015-0.022) = -0.003; price = e^{-(0.015-0.003)}
    assert report["price"] == pytest.approx(math.exp(-0.012), rel=1e-12)
    assert report["std_error"] == 0.0


def test_bsde_agrees_with_full_collateral_closed_form(docs):
    model, trade, tmp = docs
    out = tmp / "bsde"
    assert run(["bsde", "--model", str(model), "--trade", str(trade),
                "--paths", "20000", "--steps", "25", "--seed", "7",
                "--delta1", "0", "--delta2", "0", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    closed = math.exp(-0.012)
    assert abs(report["v0"] / closed - 1.0) < 2e-3
    assert len(report["picard_counts"]) == 25


def test_bsde_nonpositive_slice_denominator_exits_two(docs, capsys):
    model, trade, tmp = docs
    assert run(["bsde", "--model", str(model), "--trade", str(trade), "--paths", "500",
                "--steps", "25", "--delta2", "1e4", "--out", str(tmp / "bad")]) == 2
    assert "denominator" in capsys.readouterr().err


def test_check_subcommand_passes_and_reports(docs):
    model, _, tmp = docs
    out = tmp / "chk"
    assert run(["check", "--model", str(model), "--paths", "20000", "--steps", "4",
                "--seed", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert {p["process_id"] for p in report["processes"]} == {"asset:EQ", "fx:EUR", "fx:USD"}


def test_check_workers_do_not_change_output(docs, monkeypatch):
    # three chunks, the last ragged, on as many threads as the workers ask for
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    model, _, tmp = docs
    base = ["check", "--model", str(model), "--paths", "20002", "--steps", "4", "--seed", "3"]
    assert run(base + ["--workers", "1", "--out", str(tmp / "w1")]) == 0
    assert run(base + ["--workers", "2", "--out", str(tmp / "w2")]) == 0
    assert (tmp / "w1" / "report.json").read_bytes() == (tmp / "w2" / "report.json").read_bytes()


def test_simulate_dumps_paths(docs):
    model, _, tmp = docs
    out = tmp / "sim"
    assert run(["simulate", "--model", str(model), "--paths", "3", "--steps", "2",
                "--horizon", "1.0", "--seed", "1", "--dump-paths", "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,time,driver_label,value"
    assert len(lines) == 1 + 2 * 3 * 3  # drivers * paths * times


def test_dumped_paths_are_parseable_floats(docs):
    model, _, tmp = docs
    out = tmp / "simdump"
    assert run(["simulate", "--model", str(model), "--paths", "2", "--steps", "2",
                "--horizon", "1.0", "--seed", "1", "--dump-paths", "--out", str(out)]) == 0
    for line in (out / "paths.csv").read_text().splitlines()[1:]:
        _, t, _, v = line.split(",")
        float(t), float(v)  # raises if a numpy repr leaked into the file


def _refuse_to_simulate(*args, **kwargs):
    raise AssertionError("simulated before the inputs were checked")


def _run_refusing_to_simulate(docs, monkeypatch, command, paths, edit=None, flags=None):
    """Run ``command`` with every simulation entry point failing the test.

    ``edit`` updates the top-level keys of the trade document; ``flags``
    replace the default ``--out`` directory.
    """
    model, trade, tmp = docs
    monkeypatch.setattr("xccy.cli.simulate", _refuse_to_simulate)
    # the solver's own entry point: it runs the log-path kernel, never simulate
    monkeypatch.setattr("xccy.bsde._simulate_log_chunk", _refuse_to_simulate)
    if edit is not None:
        trade.write_text(json.dumps({**TRADE_DOC, **edit}))
    args = [command, "--model", str(model), "--paths", paths, "--steps", "4"]
    args += ["--out", str(tmp / command)] if flags is None else flags
    if command in ("price", "bsde"):
        args += ["--trade", str(trade)]
    return run(args)


@pytest.mark.parametrize("command", ["price", "check", "bsde"])
def test_one_path_exits_one(docs, capsys, monkeypatch, command):
    assert _run_refusing_to_simulate(docs, monkeypatch, command, "1") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("paths", ["2", "2001"])
@pytest.mark.parametrize("command", ["price", "check", "bsde"])
def test_path_count_without_two_whole_pairs_exits_one(docs, capsys, monkeypatch, command, paths):
    # paths come in antithetic pairs, and an error bar needs two of them
    assert _run_refusing_to_simulate(docs, monkeypatch, command, paths) == 1
    assert "error: a Monte Carlo error bar needs an even count of at least 4 paths" in capsys.readouterr().err


# every trade-document error that used to surface only after simulating, with the field it names
TRADE_ERRORS = {
    **NON_FINITE_TRADES,
    "unknown functional": ("collateral.mode.exogenous.functional", _exogenous("mark_proxi", {})),
    "unknown functional parameter": ("collateral.mode.exogenous.params.levl", _exogenous("constant", {"levl": 5.0})),
    "unknown fraction asset": (
        "collateral.mode.exogenous.params.asset",
        _exogenous("fraction_of_asset", {"asset": "NOPE"}),
    ),
    "unknown posted asset": (
        "collateral.posted_asset",
        {"collateral": {**TRADE_DOC["collateral"], "currency": "EUR", "form": "risky",
                        "posted_asset": "NOPE", "received_asset": "EQ"}},
    ),
}


@pytest.mark.parametrize("case", list(TRADE_ERRORS))
@pytest.mark.parametrize("command", ["price", "bsde"])
def test_trade_error_exits_one_before_simulating(docs, capsys, monkeypatch, command, case):
    field, edit = TRADE_ERRORS[case]
    assert _run_refusing_to_simulate(docs, monkeypatch, command, "400000", edit) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")


# collateral terms the BSDE driver does not model, which it used to solve as cash under rehypothecation
UNMODELLED_BSDE_COLLATERAL = {
    "segregation": ("collateral.convention", {"collateral": {**TRADE_DOC["collateral"], "convention": "segregation"}}),
    "risky": (
        "collateral.form",
        {"collateral": {**TRADE_DOC["collateral"], "currency": "EUR", "form": "risky",
                        "posted_asset": "EQ", "received_asset": "EQ"}},
    ),
}


@pytest.mark.parametrize("case", list(UNMODELLED_BSDE_COLLATERAL))
def test_bsde_rejects_collateral_its_driver_does_not_model(docs, capsys, monkeypatch, case):
    field, edit = UNMODELLED_BSDE_COLLATERAL[case]
    assert _run_refusing_to_simulate(docs, monkeypatch, "bsde", "400000", edit) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")


@pytest.mark.parametrize("flag", [["--delta1", "inf"], ["--delta2", "nan"]], ids=["delta1", "delta2"])
def test_non_finite_haircut_flag_exits_one_before_simulating(docs, capsys, monkeypatch, flag):
    # the flags bypass the trade's CollateralSpec, so the solver checks the haircuts again
    assert _run_refusing_to_simulate(docs, monkeypatch, "bsde", "400000", flags=flag) == 1
    assert capsys.readouterr().err.startswith(f"error: collateral.{flag[0][2:]} must be finite and exceed -1")


@pytest.mark.parametrize("horizon", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "check"])
def test_non_finite_horizon_exits_one_naming_it(docs, capsys, monkeypatch, command, horizon):
    # a NaN horizon used to be reported as "grid must start at 0, got nan"
    assert _run_refusing_to_simulate(docs, monkeypatch, command, "2000", flags=["--horizon", horizon]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad horizon/steps: {horizon}")


@pytest.mark.parametrize("command", ["price", "bsde"])
def test_trade_without_collateral_block_exits_one_before_simulating(docs, capsys, monkeypatch, command):
    _, trade, _ = docs
    trade.write_text(json.dumps({key: value for key, value in TRADE_DOC.items() if key != "collateral"}))
    assert _run_refusing_to_simulate(docs, monkeypatch, command, "400000") == 1
    assert "collateral block" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_volatility_exits_two(docs, capsys):
    # sigma**2 overflows, the log-paths are infinite and the regression's condition number has no SVD
    _, trade, tmp = docs
    path = tmp / "huge_sigma.json"
    path.write_text(json.dumps(_edited_model("assets", sigma=1e200)))
    assert run(["bsde", "--model", str(path), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_failing_martingale_check_exits_two(docs, capsys):
    model, _, tmp = docs
    args = ["check", "--model", str(model), "--paths", "2000", "--steps", "4", "--threshold", "1e-3"]
    assert run(args + ["--out", str(tmp / "check")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: martingale check failed:")
    assert json.loads((tmp / "check" / "report.json").read_text())["passed"] is False


@pytest.mark.parametrize(("command", "flag"), [("bsde", "--dump-surface"), ("simulate", "--dump-paths")])
def test_dump_without_out_exits_one_before_simulating(docs, capsys, monkeypatch, command, flag):
    assert _run_refusing_to_simulate(docs, monkeypatch, command, "400000", flags=[flag]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} requires --out")


def test_one_path_still_simulates_and_prices_the_closed_form(docs):
    model, trade, tmp = docs
    assert run(["simulate", "--model", str(model), "--paths", "1", "--steps", "2", "--out", str(tmp / "sim")]) == 0
    assert run(["price", "--model", str(model), "--trade", str(trade), "--paths", "1",
                "--mode", "full-collateral", "--out", str(tmp / "closed")]) == 0


def _malformed(tmp_path, model_doc=MODEL_DOC, trade_doc=TRADE_DOC):
    model, trade = tmp_path / "model.json", tmp_path / "trade.json"
    model.write_text(json.dumps(model_doc))
    trade.write_text(json.dumps(trade_doc))
    return ["price", "--model", str(model), "--trade", str(trade), "--paths", "100", "--steps", "4"]


def _without(doc, *path):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return doc


def test_trade_without_contract_exits_one(tmp_path, capsys):
    assert run(_malformed(tmp_path, trade_doc=_without(TRADE_DOC, "contract"))) == 1
    assert "error: trade.contract is missing" in capsys.readouterr().err


def test_fraction_of_asset_without_asset_exits_one(tmp_path, capsys):
    trade = json.loads(json.dumps(TRADE_DOC))
    trade["collateral"]["mode"] = {"exogenous": {"functional": "fraction_of_asset", "params": {"fraction": 0.5}}}
    assert run(_malformed(tmp_path, trade_doc=trade)) == 1
    assert "error: collateral.mode.exogenous.params.asset is missing" in capsys.readouterr().err


def test_currency_without_name_exits_one(tmp_path, capsys):
    assert run(_malformed(tmp_path, model_doc=_without(MODEL_DOC, "currencies", 1, "name"))) == 1
    assert "error: currencies[1].name is missing" in capsys.readouterr().err


def test_non_numeric_spot_exits_one(tmp_path, capsys):
    model = json.loads(json.dumps(MODEL_DOC))
    model["assets"][0]["s0"] = "abc"
    assert run(_malformed(tmp_path, model_doc=model)) == 1
    assert "error: assets[0].s0 is malformed" in capsys.readouterr().err


def test_check_passes_a_zero_volatility_fx_pair(tmp_path):
    model = json.loads(json.dumps(MODEL_DOC))
    model["fx"][0]["sigma"] = 0.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "chk"
    assert run(["check", "--model", str(path), "--paths", "2000", "--steps", "4", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=lambda name: pytest.fail(name))
    assert report["passed"] is True
