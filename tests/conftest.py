import numpy as np
import pytest

from xccy import (
    AssetSpec,
    CorrelationMatrix,
    Currency,
    FxSpec,
    MarketModel,
    validate_model,
)
from xccy.curves import CurveSet, RateCurve


def curveset(unsecured, coll_borrow=None, coll_lend=None, cash_post=None, coll_post=None,
             reinvest_seg=0.0, reinvest_rehyp=None):
    """Flat-rate curve set; None leaves the role unconfigured."""
    def c(x):
        return None if x is None else (x if isinstance(x, RateCurve) else RateCurve.flat(x))

    kwargs = dict(
        unsecured=c(unsecured),
        collateral_borrow=c(coll_borrow),
        collateral_lend=c(coll_lend),
        cash_post_funding=c(cash_post),
        coll_post_funding=c(coll_post),
        coll_reinvest_seg=c(reinvest_seg),
        coll_reinvest_rehyp=c(reinvest_rehyp),
    )
    return CurveSet(**{k: v for k, v in kwargs.items() if v is not None})


def build_model(currencies, rates, assets=(), fx=(), correlation=None):
    curs = [Currency(name, domestic) for name, domestic in currencies]
    model = MarketModel(
        currencies=curs,
        rates=rates,
        assets=list(assets),
        fx=list(fx),
        correlation=correlation
        if correlation is not None
        else CorrelationMatrix.identity(
            [a.label for a in assets] + [f"fx:{f.foreign}" for f in fx]
        ),
    )
    return validate_model(model)


@pytest.fixture(scope="session")
def two_currency_model():
    """EUR domestic, USD foreign; one asset per currency, full rate roles."""
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02,
                        reinvest_seg=0.0, reinvest_rehyp=0.01),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.03, coll_post=0.025,
                        reinvest_seg=0.0, reinvest_rehyp=0.02),
    }
    assets = [
        AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("FEQ", "USD", 50.0, 0.25, RateCurve.flat(0.0), RateCurve.flat(0.028)),
    ]
    fx = [FxSpec("USD", 0.9, 0.1)]
    corr = CorrelationMatrix(
        ["EQ", "FEQ", "fx:USD"],
        [[1.0, 0.3, 0.2], [0.3, 1.0, -0.4], [0.2, -0.4, 1.0]],
    )
    return build_model([("EUR", True), ("USD", False)], rates, assets, fx, corr)


@pytest.fixture(scope="session")
def bsde_two_currency_model():
    """Like two_currency_model, but cash collateral is posted out of the
    domestic unsecured account (the regime where the endogenous solver and the
    full-collateralization closed form apply)."""
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02,
                        reinvest_seg=0.0, reinvest_rehyp=0.01),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.02, coll_post=0.025,
                        reinvest_seg=0.0, reinvest_rehyp=0.02),
    }
    assets = [
        AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("FEQ", "USD", 50.0, 0.25, RateCurve.flat(0.0), RateCurve.flat(0.028)),
    ]
    fx = [FxSpec("USD", 0.9, 0.1)]
    corr = CorrelationMatrix(
        ["EQ", "FEQ", "fx:USD"],
        [[1.0, 0.3, 0.2], [0.3, 1.0, -0.4], [0.2, -0.4, 1.0]],
    )
    return build_model([("EUR", True), ("USD", False)], rates, assets, fx, corr)


@pytest.fixture(scope="session")
def single_currency_model():
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02,
                        reinvest_seg=0.0, reinvest_rehyp=0.01),
    }
    assets = [AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015))]
    return build_model([("EUR", True)], rates, assets)


@pytest.fixture(scope="session")
def three_currency_model():
    """EUR domestic, USD and JPY foreign; four assets, mixed correlations."""
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02,
                        reinvest_seg=0.0, reinvest_rehyp=0.01),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.03, coll_post=0.025,
                        reinvest_seg=0.0, reinvest_rehyp=0.02),
        "JPY": curveset(0.005, 0.001, 0.001, cash_post=0.005, coll_post=0.004,
                        reinvest_seg=0.0, reinvest_rehyp=0.001),
    }
    assets = [
        AssetSpec("EQ1", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("EQ2", "EUR", 40.0, 0.3, RateCurve.flat(0.0), RateCurve.flat(0.02)),
        AssetSpec("UST", "USD", 50.0, 0.25, RateCurve.flat(0.005), RateCurve.flat(0.028)),
        AssetSpec("NKY", "JPY", 20000.0, 0.18, RateCurve.flat(0.015), RateCurve.flat(0.006)),
    ]
    fx = [FxSpec("USD", 0.9, 0.1), FxSpec("JPY", 0.0065, 0.12)]
    labels = ["EQ1", "EQ2", "UST", "NKY", "fx:USD", "fx:JPY"]
    corr = np.array(
        [
            [1.00, 0.50, 0.30, 0.20, 0.10, -0.05],
            [0.50, 1.00, 0.25, 0.15, 0.05, 0.00],
            [0.30, 0.25, 1.00, 0.10, -0.30, 0.10],
            [0.20, 0.15, 0.10, 1.00, 0.05, -0.25],
            [0.10, 0.05, -0.30, 0.05, 1.00, 0.40],
            [-0.05, 0.00, 0.10, -0.25, 0.40, 1.00],
        ]
    )
    return build_model(
        [("EUR", True), ("USD", False), ("JPY", False)],
        rates,
        assets,
        fx,
        CorrelationMatrix(labels, corr),
    )


@pytest.fixture(scope="session")
def multi_knot_model():
    """EUR domestic, USD foreign; every rate role a multi-knot curve.

    Knots at 0.5, 0.75 and 1.25 are nodes of ``TimeGrid.regular(2.0, 16)``,
    the others fall inside its steps; the USD unsecured rate is zero on
    [0.6, 1.25), so the discounted collateral weights meet a zero inner rate.
    """
    def c(knots, values):
        return RateCurve(knots, values)

    rates = {
        "EUR": CurveSet(
            unsecured=c([0.0, 0.3, 0.5, 1.1], [0.02, 0.025, 0.018, 0.03]),
            collateral_borrow=c([0.0, 0.5, 1.7], [0.016, 0.013, 0.021]),
            collateral_lend=c([0.0, 0.45, 1.7], [0.015, 0.012, 0.02]),
            cash_post_funding=c([0.0, 0.75], [0.024, 0.027]),
            coll_post_funding=c([0.0, 1.3], [0.026, 0.029]),
            coll_reinvest_seg=c([0.0, 0.9], [0.0, 0.001]),
            coll_reinvest_rehyp=c([0.0, 0.4], [0.005, 0.006]),
        ),
        "USD": CurveSet(
            unsecured=c([0.0, 0.6, 1.25], [0.03, 0.0, 0.035]),
            collateral_borrow=c([0.0, 0.2, 1.6], [0.022, 0.025, 0.02]),
            collateral_lend=c([0.0, 0.35, 1.6], [0.021, 0.024, 0.019]),
            cash_post_funding=c([0.0, 0.8], [0.04, 0.042]),
            coll_post_funding=c([0.0, 1.05], [0.038, 0.036]),
            coll_reinvest_seg=c([0.0, 1.5], [0.0, 0.002]),
            coll_reinvest_rehyp=c([0.0, 0.7], [0.009, 0.01]),
        ),
    }
    return build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
