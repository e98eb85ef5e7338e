import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    Contract,
    CollateralPath,
    CollateralSpec,
    FxSpec,
    TimeGrid,
    martingale_test,
    price_exogenous,
    reduction_suite,
    run_martingale_suite,
    simulate,
)
from xccy.curves import RateCurve
from xccy.errors import ConfigError, UnknownProcessId


def test_domestic_fx_process_is_degenerate_pass(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 200, seed=0)
    report = martingale_test(scen, "fx:EUR")
    assert report.passed
    assert all(c.z == 0.0 and c.std_error == 0.0 for c in report.checkpoints)


@pytest.mark.parametrize("checkpoints", [0, -1, []])
def test_empty_checkpoints_rejected(two_currency_model, checkpoints):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=0)
    with pytest.raises(ConfigError):
        martingale_test(scen, "fx:USD", checkpoints)


def test_fx_process_passes_under_martingale_measure(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=41)
    report = martingale_test(scen, "fx:USD")
    assert report.passed
    assert report.max_abs_z <= 3


def test_injected_drift_fails_loudly():
    # sigma_X = 0.1, T = 1, +2% drift: expected |z| ~ 0.02 / (0.1 / sqrt(1e5)) ~ 63
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.01, 0.01)}
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    scen = simulate(model, TimeGrid.regular(1.0, 4), 100_000, seed=5, drift_shift={"fx:USD": 0.02})
    report = martingale_test(scen, "fx:USD")
    assert not report.passed
    assert report.max_abs_z > 10


def test_asset_processes_pass(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=43)
    for pid in ("asset:EQ", "asset:FEQ"):
        assert martingale_test(scen, pid).passed


def test_suite_covers_every_driver(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 1000, seed=1)
    reports = run_martingale_suite(scen)
    assert {r.process_id for r in reports} == {"asset:EQ", "asset:FEQ", "fx:EUR", "fx:USD"}


def test_unknown_process_id(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=1)
    with pytest.raises(UnknownProcessId):
        martingale_test(scen, "asset:NOPE")
    with pytest.raises(UnknownProcessId):
        martingale_test(scen, "bogus:EQ")


def test_reduction_suite_passes_on_single_currency(single_currency_model):
    report = reduction_suite(single_currency_model, n_paths=2000, seed=3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "uncollateralized-price-reduction" in names
    # all four conventions checked
    assert sum(1 for n in names if n.startswith("fx-term-vanishes")) == 4


def test_reduction_suite_requires_single_currency(two_currency_model):
    with pytest.raises(ConfigError):
        reduction_suite(two_currency_model)


def test_frozen_fx_degenerate_model_prices_like_domestic():
    # two currencies with sigma_X = 0 and equal rates everywhere: pricing a
    # foreign contract equals pricing the FX-converted domestic contract
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02),
        "USD": curveset(0.02, 0.015, 0.015, cash_post=0.02),
    }
    assets = [AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.02))]
    model = build_model(
        [("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.8, 0.0)]
    )
    scen = simulate(model, TimeGrid.regular(1.0, 10), 3000, seed=9)
    spec = CollateralSpec(currency="EUR")
    zero = CollateralPath(np.zeros((3000, 11)), "EUR")
    foreign = price_exogenous(scen, Contract("USD", ((1.0, -2.0), (0.5, 1.0))), zero, spec)
    domestic = price_exogenous(scen, Contract("EUR", ((1.0, -1.6), (0.5, 0.8))), zero, spec)
    assert abs(foreign.price - domestic.price) < 1e-12
