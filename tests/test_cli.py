import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xccy
from xccy.cli import _COMMANDS, build_parser, run
from xccy.diagnostics import FALSE_ALARM, family_p_value, family_threshold
from xccy.simulation import CHUNK_PATHS, _kernel_tiles, _step_coefficients, row_tiles, sample_mean

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


@pytest.mark.parametrize("command", [["price", "--steps", "4"], ["bsde", "--steps", "1"]])
def test_non_finite_estimate_exits_two(docs, capsys, command):
    # an overflowing foreign flow used to give "price": Infinity (or "v0": Infinity) with a NaN error bar
    # and exit 0; bsde on one step takes slice 0 as a plain mean, so the overflow reaches v0 unregressed
    model, _, tmp = docs
    trade = tmp / "overflow.json"
    trade.write_text(json.dumps({**TRADE_DOC, "contract": {"currency": "USD", "flows": [[1.0, -1e308]]}}))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run([command[0], "--model", str(model), "--trade", str(trade), "--paths", "2000", *command[1:]])
    assert code == 2
    assert capsys.readouterr().err.startswith("numerical failure: non-finite")


def test_a_far_flow_date_names_the_overflowing_account(docs, capsys):
    # the domestic account overflows at the second node, 250,000 years: the failure names it, not the FX level
    # that underflows after it; pytest makes any numpy warning an error
    model, _, tmp = docs
    trade = tmp / "far.json"
    trade.write_text(json.dumps({**TRADE_DOC, "contract": {"currency": "EUR", "flows": [[1e6, -1.0]]}}))
    assert run(["price", "--model", str(model), "--trade", str(trade), "--paths", "200", "--steps", "4"]) == 2
    assert capsys.readouterr().err.splitlines() == ["numerical failure: non-finite EUR cash account at t=250000.0"]


def _model_with(path, value):
    """MODEL_DOC with the field at ``path`` (keys and indices) set to ``value``."""
    return _document_with(MODEL_DOC, path, value)


def _document_with(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# float(true) is 1.0: every number of a document, scalar or in an array, rejects a JSON boolean
BOOLEAN_MODELS = {
    "asset spot": ("assets[0].s0", ("assets", 0, "s0")),
    "asset sigma": ("assets[0].sigma", ("assets", 0, "sigma")),
    "fx level": ("fx[0].x0", ("fx", 0, "x0")),
    "fx sigma": ("fx[0].sigma", ("fx", 0, "sigma")),
    "flat curve": ("currencies[1].rates.unsecured", ("currencies", 1, "rates", "unsecured")),
    "flat dividend yield": ("assets[0].dividend_yield", ("assets", 0, "dividend_yield")),
    "curve knots": ("assets[0].repo_rate.knots", ("assets", 0, "repo_rate", "knots", 1)),
    "curve values": ("assets[0].repo_rate.values", ("assets", 0, "repo_rate", "values", 0)),
    "correlation matrix": ("correlation.matrix", ("correlation", "matrix", 0, 0)),
}
BOOLEAN_TRADES = {
    "flow time": ("contract.flows", {"contract": {"currency": "EUR", "flows": [[True, -1.0]]}}),
    "flow amount": ("contract.flows", {"contract": {"currency": "EUR", "flows": [[1.0, False]]}}),
    "initial flow": (
        "contract.initial_flow",
        {"contract": {"currency": "EUR", "flows": [[1.0, -1.0]], "initial_flow": True}},
    ),
    "delta1": ("collateral.delta1", {"collateral": {**TRADE_DOC["collateral"], "delta1": True}}),
    "delta2": ("collateral.delta2", {"collateral": {**TRADE_DOC["collateral"], "delta2": False}}),
    "constant level": ("collateral.mode.exogenous.params.level", _exogenous("constant", {"level": True})),
    "asset fraction": (
        "collateral.mode.exogenous.params.fraction",
        _exogenous("fraction_of_asset", {"asset": "EQ", "fraction": True}),
    ),
}
BOOLEAN_CASES = [("model", case) for case in BOOLEAN_MODELS] + [("trade", case) for case in BOOLEAN_TRADES]


@pytest.mark.parametrize("command", ["price", "bsde"])
@pytest.mark.parametrize("document, case", BOOLEAN_CASES)
def test_json_boolean_in_a_number_exits_one_naming_the_field(docs, capsys, command, document, case):
    # "delta1": true gave a bsde report with "delta1": 1.0, and "unsecured": true a flat 100% curve
    model, trade, tmp = docs
    if document == "model":
        field, path = BOOLEAN_MODELS[case]
        model = tmp / "boolean_model.json"
        model.write_text(json.dumps(_model_with(path, True)))
    else:
        field, edit = BOOLEAN_TRADES[case]
        trade = tmp / "boolean_trade.json"
        trade.write_text(json.dumps({**TRADE_DOC, **edit}))
    assert run([command, "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} is malformed: ") and "is a JSON boolean, not a number" in err, err


# float() of a JSON integer of 400 digits raises OverflowError, which used to escape as a traceback
HUGE_INTEGERS = {
    "fx level": ("model", "fx[0].x0", ("fx", 0, "x0")),
    "correlation entry": ("model", "correlation.matrix", ("correlation", "matrix", 0, 1)),
    "flow time": ("trade", "contract.flows", ("contract", "flows", 0, 0)),
}


@pytest.mark.parametrize("case", list(HUGE_INTEGERS))
def test_an_integer_too_large_for_a_float_exits_one_naming_the_field(docs, capsys, case):
    model, trade, tmp = docs
    document, field, path = HUGE_INTEGERS[case]
    edited = tmp / "huge_integer.json"
    edited.write_text(json.dumps(_document_with(MODEL_DOC if document == "model" else TRADE_DOC, path, 10**400)))
    model, trade = (edited, trade) if document == "model" else (model, edited)
    assert run(["price", "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} is malformed: int too large to convert to float\n", err


# a label, a currency or a functional name that is no string used to escape as a TypeError traceback:
# from sorted, from a dict or set lookup, or from the functional table
NON_STRING_NAMES = {
    "correlation label": ("model", "correlation.labels", ("correlation", "labels", 0), 1e6),
    "asset label": ("model", "assets[0].label", ("assets", 0, "label"), 5.0),
    "asset currency": ("model", "assets[0].currency", ("assets", 0, "currency"), {}),
    "currency name": ("model", "currencies[1].name", ("currencies", 1, "name"), ["USD"]),
    "fx currency": ("model", "fx[0].currency", ("fx", 0, "currency"), [1.0]),
    "collateral currency": ("trade", "collateral.currency", ("collateral", "currency"), []),
    "contract currency": ("trade", "contract.currency", ("contract", "currency"), {}),
    "functional": (
        "trade", "collateral.mode.exogenous.functional", ("collateral", "mode", "exogenous", "functional"), []
    ),
}


@pytest.mark.parametrize("case", list(NON_STRING_NAMES))
def test_a_name_that_is_no_string_exits_one_naming_the_field(docs, capsys, case):
    model, trade, tmp = docs
    document, field, path, value = NON_STRING_NAMES[case]
    edited = tmp / "non_string_name.json"
    edited.write_text(json.dumps(_document_with(MODEL_DOC if document == "model" else TRADE_DOC, path, value)))
    model, trade = (edited, trade) if document == "model" else (model, edited)
    assert run(["price", "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} is malformed: ") and "is not a JSON string" in err, err
    assert err.count("\n") == 1, err


def test_correlation_labels_that_are_no_array_exit_one_naming_the_field(docs, capsys):
    model, trade, tmp = docs
    edited = tmp / "labels.json"
    edited.write_text(json.dumps(_document_with(MODEL_DOC, ("correlation", "labels"), "EQ")))
    assert run(["validate", "--model", str(edited)]) == 1
    assert capsys.readouterr().err == "error: correlation.labels is malformed: 'EQ' is not a JSON array\n"


def _with_strings(doc):
    """``doc`` with every JSON boolean in it replaced by the string "0.5"."""
    if isinstance(doc, bool):
        return "0.5"
    if isinstance(doc, dict):
        return {key: _with_strings(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_with_strings(item) for item in doc]
    return doc


@pytest.mark.parametrize("command", ["price", "bsde"])
@pytest.mark.parametrize("document, case", BOOLEAN_CASES)
def test_json_string_in_a_number_exits_one_naming_the_field(docs, capsys, command, document, case):
    # float("0.5") is 0.5: "x0": "0.9" passed validate, and "delta1": "0.5" gave a bsde report with "delta1": 0.5
    model, trade, tmp = docs
    if document == "model":
        field, path = BOOLEAN_MODELS[case]
        model = tmp / "string_model.json"
        model.write_text(json.dumps(_model_with(path, "0.5")))
    else:
        field, edit = BOOLEAN_TRADES[case]
        trade = tmp / "string_trade.json"
        trade.write_text(json.dumps({**TRADE_DOC, **_with_strings(edit)}))
    assert run([command, "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} is malformed: ") and "'0.5' is a JSON string, not a number" in err, err


def _run_cli_process(argv) -> subprocess.CompletedProcess:
    """``python -m xccy.cli`` on ``argv`` in a process of its own, so numpy's warnings reach its stderr."""
    src = os.path.dirname(os.path.dirname(xccy.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "xccy.cli", *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", [["price", "--steps", "4"], ["bsde", "--steps", "1"]])
def test_non_finite_estimate_prints_one_stderr_line(docs, command):
    # numpy's overflow warnings, each with its source line, used to come before the one that names the estimate
    model, _, tmp = docs
    trade = tmp / "overflow.json"
    trade.write_text(json.dumps({**TRADE_DOC, "contract": {"currency": "USD", "flows": [[1.0, -1e308]]}}))
    argv = [command[0], "--model", str(model), "--trade", str(trade), "--paths", "2000", "--seed", "1", *command[1:]]
    done = _run_cli_process(argv)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: non-finite"), done.stderr


def test_an_overflowing_domestic_bsde_value_prints_one_stderr_line(docs):
    # a domestic trade is valued by its exact recursion: one flow of -1e308 discounts to a finite v0, and a
    # second one at 0.5 overflows the sum there; the failure alone, no numpy warning before it
    model, _, tmp = docs
    trade = tmp / "overflow.json"
    trade.write_text(json.dumps({**TRADE_DOC, "contract": {"currency": "EUR", "flows": [[0.5, -1e308], [1.0, -1e308]]}}))
    done = _run_cli_process(["bsde", "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "2"])
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: non-finite v0: inf"), done.stderr


@pytest.mark.parametrize("k3", ["EUR", "USD"])
def test_overflowing_haircut_prints_the_failure_alone(tmp_path, capsys, k3):
    # the haircut of a 1.7e308 mark overflows: numpy's overflow warning from the haircut, and under USD
    # collateral an invalid-subtraction warning from the FX term of the legs, came before the failure
    demo = Path(__file__).resolve().parents[1] / "demos" / "config"
    doc = json.loads((demo / "trade.json").read_text())
    doc["contract"]["flows"] = [[1.0, 1.7e308]]
    doc["collateral"].update(currency=k3, delta1=0.5, delta2=0.5)
    trade = tmp_path / "trade.json"
    trade.write_text(json.dumps(doc))
    argv = ["price", "--model", str(demo / "model.json"), "--trade", str(trade),
            "--paths", "2000", "--steps", "4", "--seed", "1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: non-finite price: (-?inf|nan) with standard error nan\n", err), err


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


def test_printed_report_is_the_report_written_under_out(docs, capsys):
    model, trade, tmp = docs
    args = ["price", "--model", str(model), "--trade", str(trade), "--paths", "2000", "--steps", "10"]
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert run(args + ["--out", str(tmp / "out")]) == 0
    assert printed.encode() == (tmp / "out" / "report.json").read_bytes()


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
    assert "picard_counts" not in report  # one exact slice solve per step: nothing to report


def _wider_model_docs():
    """MODEL_DOC with an EUR asset, and with a GBP currency and its FX pair; each correlated with fx:USD."""
    with_asset = json.loads(json.dumps(MODEL_DOC))
    with_asset["assets"].append({"label": "EQ2", "currency": "EUR", "s0": 30.0, "sigma": 0.35})
    with_currency = json.loads(json.dumps(MODEL_DOC))
    with_currency["currencies"].append({"name": "GBP", "rates": {"unsecured": 0.04, "collateral_lend": 0.03}})
    with_currency["fx"].append({"currency": "GBP", "x0": 1.15, "sigma": 0.12})
    for doc, label in ((with_asset, "EQ2"), (with_currency, "fx:GBP")):
        doc["correlation"] = {
            "labels": ["EQ", "fx:USD", label],
            "matrix": [[1.0, 0.3, 0.1], [0.3, 1.0, 0.4], [0.1, 0.4, 1.0]],
        }
    return [with_asset, with_currency]


@pytest.mark.parametrize("native", ["USD", "EUR"], ids=["foreign", "domestic"])
def test_bsde_report_does_not_move_with_drivers_the_trade_does_not_read(docs, native):
    model, trade, tmp = docs
    trade.write_text(json.dumps({**TRADE_DOC, "contract": {"currency": native, "flows": [[0.5, 2.0], [1.0, -1.0]]}}))
    reports = []
    for i, doc in enumerate([MODEL_DOC, *_wider_model_docs()]):
        path = tmp / f"model{i}.json"
        path.write_text(json.dumps(doc))
        out = tmp / f"bsde{i}"
        assert run(["bsde", "--model", str(path), "--trade", str(trade), "--paths", "20000", "--steps", "4",
                    "--seed", "3", "--delta1", "0.3", "--delta2", "0.1", "--out", str(out), "--dump-surface"]) == 0
        reports.append(((out / "report.json").read_bytes(), (out / "surface.csv").read_bytes()))
    assert reports[1:] == reports[:1] * 2
    assert json.loads(reports[0][0])["k2"] == native


def test_domestic_bsde_outputs_do_not_move_with_the_workers(docs):
    # a domestic trade is valued without paths: its report and surface dump are the same bytes at 1 and 2 workers
    model, trade, tmp = docs
    trade.write_text(json.dumps({**TRADE_DOC, "contract": {"currency": "EUR", "flows": [[0.5, 2.0], [1.0, -1.0]]}}))
    outputs = []
    for workers in ("1", "2"):
        out = tmp / f"bsde{workers}"
        assert run(["bsde", "--model", str(model), "--trade", str(trade), "--paths", "20000", "--steps", "4",
                    "--delta1", "0.3", "--delta2", "0.1", "--workers", workers, "--out", str(out),
                    "--dump-surface"]) == 0
        outputs.append(((out / "report.json").read_bytes(), (out / "surface.csv").read_bytes()))
    assert outputs[1] == outputs[0]
    report = json.loads(outputs[0][0])
    assert report["k2"] == "EUR" and report["v0_std_error"] > 0


def test_price_report_does_not_move_with_an_appended_asset(tmp_path):
    # the demo trade paid in USD reads fx:USD alone, the first factor; an asset appended to the
    # model is the last factor, correlated with every driver, and moves no bit of the report
    root = Path(__file__).resolve().parents[1] / "demos" / "config"
    model = json.loads((root / "model.json").read_text())
    trade = json.loads((root / "trade.json").read_text())
    trade["contract"]["currency"] = "USD"
    wider = json.loads(json.dumps(model))
    wider["assets"].append({"label": "GLD", "currency": "USD", "s0": 1800.0, "sigma": 0.15})
    corr = wider["correlation"]
    corr["labels"].append("GLD")
    row = [0.2, -0.1, 0.3]
    corr["matrix"] = [[*r, x] for r, x in zip(corr["matrix"], row)] + [[*row, 1.0]]
    (tmp_path / "trade.json").write_text(json.dumps(trade))
    reports = []
    for name, doc in (("model", model), ("wider", wider)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / name
        assert run(["price", "--model", str(tmp_path / f"{name}.json"), "--trade", str(tmp_path / "trade.json"),
                    "--paths", "20000", "--steps", "10", "--seed", "3", "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[1] == reports[0]
    assert json.loads(reports[0])["k2"] == "USD"


def test_simulate_reports_each_terminal_mean_with_its_error_bar(docs):
    model, _, tmp = docs
    args = ["simulate", "--model", str(model), "--steps", "4", "--seed", "5"]
    assert run(args + ["--paths", "20000", "--out", str(tmp / "sim")]) == 0
    report = json.loads((tmp / "sim" / "report.json").read_text())
    scenario = xccy.simulate(xccy.validate_model(xccy.load_model(str(model))), xccy.TimeGrid.regular(1.0, 4), 20000, 5)
    means, std_errors = sample_mean(scenario.paths[:, -1])
    labels = report["drivers"]
    assert report["terminal_means"] == dict(zip(labels, means.tolist()))
    assert report["terminal_std_errors"] == dict(zip(labels, std_errors.tolist()))
    assert all(se > 0 for se in std_errors)
    # three paths are one antithetic pair and a half: the means have no error bar
    assert run(args + ["--paths", "3", "--out", str(tmp / "sim3")]) == 0
    report = json.loads((tmp / "sim3" / "report.json").read_text())
    assert report["terminal_std_errors"] == dict.fromkeys(labels)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_terminal_means_streamed_over_many_tiles_are_the_stored_ones(
    three_currency_model, tmp_path, monkeypatch, workers
):
    # 40 steps of six drivers: ten kernel tiles per full chunk when streamed, and three store tiles once
    # --dump-paths has loaded the paths (the text itself is not written here); a full chunk and a ragged one
    grid, n_paths = xccy.TimeGrid.regular(1.0, 40), CHUNK_PATHS + 100
    assert len(_kernel_tiles(_step_coefficients(three_currency_model, grid, {})[1], CHUNK_PATHS)[1]) == 10
    assert len(row_tiles(40, 8 * CHUNK_PATHS)) == 3
    monkeypatch.setattr("xccy.cli.dump_paths_csv", lambda scenario, path: None)
    means, std_errors = sample_mean(xccy.simulate(three_currency_model, grid, n_paths, 11).paths[:, -1])
    labels = three_currency_model.driver_labels
    for dump in ([], ["--dump-paths"]):
        out = tmp_path / f"sim{len(dump)}"
        argv = ["simulate", "--model", "unread", "--paths", str(n_paths), "--steps", "40", "--seed", "11",
                "--workers", workers, "--out", str(out), *dump]
        assert _COMMANDS["simulate"](build_parser().parse_args(argv), three_currency_model) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["terminal_means"] == dict(zip(labels, means.tolist())), dump
        assert report["terminal_std_errors"] == dict(zip(labels, std_errors.tolist())), dump


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


def test_overflowing_terminal_mean_exits_two_writing_nothing(docs):
    # the demo's FEQ level overflows at this horizon: simulate wrote "FEQ": Infinity, not JSON, and exited 0
    _, _, tmp = docs
    model, out = Path(__file__).resolve().parents[1] / "demos" / "config" / "model.json", tmp / "sim"
    src = os.path.dirname(os.path.dirname(xccy.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["simulate", "--model", str(model), "--paths", "100", "--steps", "4", "--horizon", "1e308",
            "--out", str(out), "--dump-paths"]
    done = subprocess.run(
        [sys.executable, "-m", "xccy.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: non-finite FEQ terminal mean"), done.stderr
    assert list(out.iterdir()) == []  # neither paths.csv nor report.json


@pytest.mark.parametrize("workers", ["1", "2"])
def test_overflowing_account_in_check_prints_one_stderr_line(docs, workers):
    # the accounts of a 1e308-year horizon overflow: the first to overflow is named, with no numpy warning before it
    _, _, tmp = docs
    model = Path(__file__).resolve().parents[1] / "demos" / "config" / "model.json"
    src = os.path.dirname(os.path.dirname(xccy.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["check", "--model", str(model), "--paths", "100", "--steps", "4", "--horizon", "1e308",
            "--workers", workers, "--out", str(tmp / "check")]
    done = subprocess.run(
        [sys.executable, "-m", "xccy.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert lines == ["numerical failure: non-finite EUR repo account of EQ at t=2.5e+307"], done.stderr


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


# a volatility past VOL_BOUND collapsed the paths: sigma**2 overflowed (simulate reported a terminal
# mean of 0.0, price a non-positive FX level, bsde a regression design without an SVD), or
# exp(-sigma**2 t / 2) underflowed (check failed with |z| near 1e15)
HUGE_VOLATILITIES = {
    "simulate": ("assets[EQ].sigma", _edited_model("assets", sigma=1e200)),
    "price": ("fx[USD].sigma", _edited_model("fx", sigma=1e200)),
    "check": ("assets[EQ].sigma", _edited_model("assets", sigma=40.0)),
    "bsde": ("assets[EQ].sigma", _edited_model("assets", sigma=1e200)),
}


@pytest.mark.parametrize("command", list(HUGE_VOLATILITIES))
def test_volatility_above_the_bound_exits_one_before_simulating(docs, capsys, monkeypatch, command):
    model, _, _ = docs
    field, doc = HUGE_VOLATILITIES[command]
    model.write_text(json.dumps(doc))
    assert _run_refusing_to_simulate(docs, monkeypatch, command, "2000") == 1
    assert capsys.readouterr().err.startswith(f"violation: NegativeVolatility [{field}]: sigma")


def test_out_of_memory_exits_one(docs, capsys, monkeypatch):
    # numpy raised its MemoryError as a traceback, as for 100M paths x 50 steps (a 114 GiB scenario)
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 114. GiB for an array with shape (6, 51, 100000000)")

    monkeypatch.setattr("xccy.cli.simulate", exhausted)
    model, _, _ = docs
    assert run(["check", "--model", str(model), "--paths", "100000000", "--steps", "50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 114. GiB")
    assert "fewer --paths or --steps" in err


@pytest.mark.parametrize("flag", ["false", 1], ids=["string", "number"])
def test_non_boolean_domestic_flag_exits_one_naming_it(docs, capsys, flag):
    # bool("false") is true: the flag made USD a second domestic currency, reported as a DomesticCount,
    # DomesticFxPair and MissingFxPair violation
    model, _, _ = docs
    doc = json.loads(json.dumps(MODEL_DOC))
    doc["currencies"][1]["domestic"] = flag
    model.write_text(json.dumps(doc))
    assert run(["validate", "--model", str(model)]) == 1
    assert capsys.readouterr().err.startswith("error: currencies[1].domestic is malformed")


def test_failing_martingale_check_exits_two(docs, capsys):
    model, _, tmp = docs
    args = ["check", "--model", str(model), "--paths", "2000", "--steps", "4", "--threshold", "1e-3"]
    assert run(args + ["--out", str(tmp / "check")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: martingale check failed:")
    assert json.loads((tmp / "check" / "report.json").read_text())["passed"] is False


def test_check_gates_the_family_by_default(docs):
    model, _, tmp = docs
    args = ["check", "--model", str(model), "--paths", "2000", "--steps", "4"]
    assert run(args + ["--out", str(tmp / "family")]) == 0
    assert run(args + ["--threshold", "3", "--out", str(tmp / "per_test")]) == 0
    family, per_test = (json.loads((tmp / d / "report.json").read_text()) for d in ("family", "per_test"))
    assert family["processes"] == [{**p, "threshold": family["threshold"]} for p in per_test["processes"]]
    # asset:EQ and fx:USD at 4 checkpoints; fx:EUR is degenerate
    assert family["family_size"] == per_test["family_size"] == 8
    assert family["threshold"] == family_threshold(8)
    assert per_test["threshold"] == 3.0
    assert family["family_p_value"] == per_test["family_p_value"] == family_p_value(
        [xccy.diagnostics.TestReport(p["process_id"], tuple(xccy.diagnostics.CheckpointStat(**c) for c in p["checkpoints"]), 3.0)
         for p in family["processes"]]
    )
    assert FALSE_ALARM < family["family_p_value"] <= 1.0


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
