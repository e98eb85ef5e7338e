import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    CorrelationMatrix,
    Currency,
    FxSpec,
    MarketModel,
    ModelValidationError,
    TimeGrid,
    cross_currency_basis,
    model_from_dict,
    simulate,
    validate_model,
)
from xccy.curves import RateCurve
from xccy.errors import AsymmetricCollateralRates, ConfigError, UnknownCurrency
from xccy.model import cross_currency_basis_integral
from xccy.simulation import CHUNK_PATHS, qe_drift_of


def _simple_raw(corr=None, sigma=0.2):
    currencies = [Currency("EUR", True)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01, cash_post=0.02)}
    assets = [AssetSpec("EQ", "EUR", 100.0, sigma, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    correlation = corr if corr is not None else CorrelationMatrix.identity(["EQ"])
    return MarketModel(currencies, rates, assets, [], correlation)


@pytest.mark.parametrize(
    "lend_values, symmetric", [([0.016, 0.013, 0.021], True), ([0.016, 0.013, 0.02], False), (None, False)]
)
def test_symmetric_collateral_rates_compare_multi_knot_curves(lend_values, symmetric):
    borrow = RateCurve([0.0, 0.5, 1.7], [0.016, 0.013, 0.021])
    lend = None if lend_values is None else RateCurve([0.0, 0.5, 1.7], lend_values)
    model = build_model([("EUR", True)], {"EUR": curveset(0.02, borrow, lend)})
    if symmetric:
        model.require_symmetric_collateral_rates("EUR")
    else:
        with pytest.raises(AsymmetricCollateralRates):
            model.require_symmetric_collateral_rates("EUR")


def test_symmetric_collateral_rates_of_a_currency_the_model_lacks_raise(two_currency_model):
    with pytest.raises(UnknownCurrency):
        two_currency_model.require_symmetric_collateral_rates("GBP")


def test_identity_correlation_single_asset_is_valid():
    model = validate_model(_simple_raw())
    assert model.domestic == "EUR"
    assert model.driver_labels == ("EQ",)


def test_entry_above_one_rejected():
    currencies = [Currency("EUR", True)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01)}
    assets = [
        AssetSpec("A", "EUR", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.0)),
        AssetSpec("B", "EUR", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.0)),
    ]
    corr = CorrelationMatrix(["A", "B"], [[1.0, 1.5], [1.5, 1.0]])
    with pytest.raises(ModelValidationError) as exc:
        validate_model(MarketModel(currencies, rates, assets, [], corr))
    codes = {v.code for v in exc.value.violations}
    assert "NonPsdCorrelation" in codes


def test_three_driver_negative_determinant_rejected():
    # equicorrelated 3x3 with rho = -0.9; Sarrus determinant oracle:
    # det = 1 + 2 rho^3 - 3 rho^2 < 0, so an odd number of eigenvalues is negative
    rho = -0.9
    det = 1.0 + 2.0 * rho**3 - 3.0 * rho**2
    assert det < 0
    currencies = [Currency("EUR", True)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01)}
    assets = [
        AssetSpec(lab, "EUR", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.0))
        for lab in ("A", "B", "C")
    ]
    m = np.full((3, 3), rho)
    np.fill_diagonal(m, 1.0)
    corr = CorrelationMatrix(["A", "B", "C"], m)
    with pytest.raises(ModelValidationError) as exc:
        validate_model(MarketModel(currencies, rates, assets, [], corr))
    assert any(v.code == "NonPsdCorrelation" for v in exc.value.violations)


def test_violations_name_the_offending_field():
    currencies = [Currency("EUR", True)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01)}
    assets = [AssetSpec("EQ", "EUR", -1.0, -0.2, RateCurve.flat(0.0), RateCurve.flat(2.5))]
    with pytest.raises(ModelValidationError) as exc:
        validate_model(MarketModel(currencies, rates, assets, [], CorrelationMatrix.identity(["EQ"])))
    fields = {v.field for v in exc.value.violations}
    assert "assets[EQ].sigma" in fields
    assert "assets[EQ].s0" in fields
    assert "assets[EQ].repo_rate" in fields  # |r| > 1 bound


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_rate_is_unbounded(bad):
    # NaN fails every comparison, so the bound is stated as "at most", not "exceeds"
    currencies = [Currency("EUR", True)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01)}
    assets = [AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve([0.0, 1.0], [0.0, bad]), RateCurve.flat(0.01))]
    with pytest.raises(ModelValidationError) as exc:
        validate_model(MarketModel(currencies, rates, assets, [], CorrelationMatrix.identity(["EQ"])))
    assert [(v.code, v.field) for v in exc.value.violations] == [("UnboundedRate", "assets[EQ].dividend_yield")]


def test_duplicate_currency_detected():
    currencies = [Currency("EUR", True), Currency("EUR", False)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01)}
    with pytest.raises(ModelValidationError) as exc:
        validate_model(MarketModel(currencies, rates, [], [], CorrelationMatrix.identity([])))
    assert "DuplicateCurrency" in {v.code for v in exc.value.violations}


def test_missing_fx_pair_detected():
    currencies = [Currency("EUR", True), Currency("GBP", False)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "GBP": curveset(0.03, 0.01, 0.01)}
    with pytest.raises(ModelValidationError) as exc:
        validate_model(MarketModel(currencies, rates, [], [], CorrelationMatrix.identity([])))
    assert "MissingFxPair" in {v.code for v in exc.value.violations}


def _two_currency_raw():
    """EUR domestic, USD foreign, one EUR asset: a raw model that validates."""
    return MarketModel(
        [Currency("EUR", True), Currency("USD", False)],
        {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.02, 0.02)},
        [AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))],
        [FxSpec("USD", 0.9, 0.1)],
        CorrelationMatrix.identity(["EQ", "fx:USD"]),
    )


def _with_asset(**changes):
    return lambda raw: dataclasses.replace(raw, assets=[dataclasses.replace(raw.assets[0], **changes)])


def _with_fx(**changes):
    return lambda raw: dataclasses.replace(raw, fx=[dataclasses.replace(raw.fx[0], **changes)])


def _with_correlation(labels, matrix):
    return lambda raw: dataclasses.replace(raw, correlation=CorrelationMatrix(labels, matrix))


# one edit of a valid model per finding, with the (code, field) it must produce
VALIDATION_FINDINGS = {
    "no domestic": (
        ("DomesticCount", "currencies"),
        lambda raw: dataclasses.replace(raw, currencies=[Currency("EUR", False), Currency("USD", False)]),
    ),
    "missing rates": (
        ("MissingRates", "rates[USD]"),
        lambda raw: dataclasses.replace(raw, rates={"EUR": raw.rates["EUR"]}),
    ),
    "asset currency": (("UnknownCurrency", "assets[EQ].currency"), _with_asset(currency="GBP")),
    "infinite asset sigma": (("NegativeVolatility", "assets[EQ].sigma"), _with_asset(sigma=math.inf)),
    "infinite spot": (("NonPositiveSpot", "assets[EQ].s0"), _with_asset(s0=math.inf)),
    "fx currency": (("UnknownCurrency", "fx[GBP].foreign"), _with_fx(foreign="GBP")),
    "duplicate fx pair": (
        ("DuplicateFxPair", "fx"),
        lambda raw: dataclasses.replace(raw, fx=raw.fx + raw.fx),
    ),
    "domestic fx pair": (
        ("DomesticFxPair", "fx[EUR]"),
        lambda raw: dataclasses.replace(raw, fx=raw.fx + [FxSpec("EUR", 1.0, 0.0)]),
    ),
    "zero fx level": (("NonPositiveFx", "fx[USD].x0"), _with_fx(x0=0.0)),
    "infinite fx level": (("NonPositiveFx", "fx[USD].x0"), _with_fx(x0=math.inf)),
    "negative fx sigma": (("NegativeVolatility", "fx[USD].sigma"), _with_fx(sigma=-0.1)),
    "infinite fx sigma": (("NegativeVolatility", "fx[USD].sigma"), _with_fx(sigma=math.inf)),
    "correlation label": (
        ("MissingCorrelationLabel", "correlation.labels"),
        _with_correlation(["EQ", "fx:GBP"], np.eye(2)),
    ),
    "correlation shape": (("BadCorrelationShape", "correlation.matrix"), _with_correlation(["EQ", "fx:USD"], np.eye(3))),
    "asymmetric correlation": (
        ("NonSymmetricCorrelation", "correlation.matrix"),
        _with_correlation(["EQ", "fx:USD"], [[1.0, 0.3], [0.2, 1.0]]),
    ),
    "diagonal not one": (
        ("NonUnitDiagonal", "correlation.matrix"),
        _with_correlation(["EQ", "fx:USD"], [[0.9, 0.0], [0.0, 1.0]]),
    ),
}


@pytest.mark.parametrize("case", list(VALIDATION_FINDINGS))
def test_validation_finding_names_its_field(case):
    finding, edit = VALIDATION_FINDINGS[case]
    validate_model(_two_currency_raw())  # the unedited model is valid
    with pytest.raises(ModelValidationError) as exc:
        validate_model(edit(_two_currency_raw()))
    assert finding in {(v.code, v.field) for v in exc.value.violations}


def test_revalidation_is_idempotent(two_currency_model):
    again = validate_model(two_currency_model)
    assert again is two_currency_model


def test_basis_direct_substitution():
    # r_e=0.03, r_k=0.01, rc_e=0.025, rc_k=0.012 -> q = 0.02 - 0.013 = 0.007
    rates = {
        "EUR": curveset(0.03, 0.025, 0.025),
        "USD": curveset(0.01, 0.012, 0.012),
    }
    model = build_model(
        [("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 1.1, 0.1)]
    )
    assert cross_currency_basis(model, "USD", 0.4) == pytest.approx(0.007, abs=1e-15)


def test_basis_domestic_is_zero(two_currency_model):
    for t in (0.0, 0.5, 3.0):
        assert cross_currency_basis(two_currency_model, "EUR", t) == 0.0


def test_basis_antisymmetric_under_domestic_swap():
    rates = {
        "EUR": curveset(0.03, 0.025, 0.025),
        "USD": curveset(0.01, 0.012, 0.012),
    }
    m1 = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 1.1, 0.1)])
    m2 = build_model([("EUR", False), ("USD", True)], dict(rates), fx=[FxSpec("EUR", 1 / 1.1, 0.1)])
    q12 = cross_currency_basis(m1, "USD", 0.3)
    q21 = cross_currency_basis(m2, "EUR", 0.3)
    assert q12 == pytest.approx(-q21, abs=1e-15)


def test_basis_integral_matches_pointwise_for_flat_curves(two_currency_model):
    q = cross_currency_basis(two_currency_model, "USD", 0.0)
    integral = cross_currency_basis_integral(two_currency_model, "USD", 0.0, 2.0)
    assert integral == pytest.approx(2.0 * q, rel=1e-14)


def test_unknown_currency_raises(two_currency_model):
    with pytest.raises(UnknownCurrency):
        cross_currency_basis(two_currency_model, "GBP", 0.0)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_normalized_gram_matrices_always_validate(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    raw = data.draw(
        st.lists(
            st.lists(st.floats(min_value=-2, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    a = np.asarray(raw) + 1e-3 * np.eye(n)
    gram = a @ a.T
    d = np.sqrt(np.diag(gram))
    if np.any(d == 0):
        return
    corr = gram / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    labels = [f"A{i}" for i in range(n)]
    currencies = [Currency("EUR", True)]
    rates = {"EUR": curveset(0.02, 0.01, 0.01)}
    assets = [
        AssetSpec(lab, "EUR", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.0)) for lab in labels
    ]
    model = validate_model(
        MarketModel(currencies, rates, assets, [], CorrelationMatrix(labels, corr))
    )
    # the mixing factor reproduces the (clipped) correlation
    rebuilt = model.mixing @ model.mixing.T
    assert np.allclose(rebuilt, model.correlation.matrix, atol=1e-10)


def test_every_exported_name_resolves():
    import xccy

    missing = [name for name in xccy.__all__ if not hasattr(xccy, name)]
    assert not missing


def test_a_model_document_without_a_correlation_block_gets_the_identity():
    doc = json.loads((Path(__file__).resolve().parents[1] / "demos" / "config" / "model.json").read_text())
    del doc["correlation"]
    model = validate_model(model_from_dict(doc))
    assert model.correlation.labels == ("EQ", "FEQ", "fx:USD")
    assert np.array_equal(model.correlation.matrix, np.eye(3))


@pytest.mark.parametrize(
    "labels, currencies, assets, fx",
    [
        (["UST"], ("EUR", "USD"), ("UST",), ("USD",)),
        (["fx:JPY", "EQ1"], ("EUR", "JPY"), ("EQ1",), ("JPY",)),
        (["NKY", "fx:USD", "EQ2"], ("EUR", "USD", "JPY"), ("EQ2", "NKY"), ("USD", "JPY")),
    ],
)
def test_a_restriction_keeps_its_drivers_and_what_they_need(three_currency_model, labels, currencies, assets, fx):
    model = three_currency_model
    sub = model.restricted(labels)
    assert sub.currency_names == currencies
    assert sub.domestic == "EUR"
    assert {name: sub.curve_set(name) for name in currencies} == {name: model.curve_set(name) for name in currencies}
    assert tuple(a.label for a in sub.assets) == assets
    assert tuple(f.foreign for f in sub.fx) == fx
    assert sub.driver_labels == assets + tuple(f"fx:{c}" for c in fx)
    rows = [model.driver_labels.index(label) for label in sub.driver_labels]
    assert np.array_equal(sub.correlation.matrix, model.correlation.matrix[np.ix_(rows, rows)])
    np.testing.assert_allclose(sub.mixing @ sub.mixing.T, sub.correlation.matrix, atol=1e-12)
    # an asset keeps the FX pair of its currency, so its quanto-corrected drift
    for label in sub.driver_labels:
        assert qe_drift_of(sub, label, lambda c: c.rate(0.3)) == qe_drift_of(model, label, lambda c: c.rate(0.3))


def test_a_restriction_takes_the_correlation_submatrix(three_currency_model):
    sub = three_currency_model.restricted(["UST"])
    assert sub.correlation.labels == ("UST", "fx:USD")
    assert sub.correlation.matrix.tolist() == [[1.0, -0.3], [-0.3, 1.0]]


def test_restricting_to_every_driver_simulates_the_same_bits(three_currency_model):
    model = three_currency_model
    whole = model.restricted(model.driver_labels)
    assert model.restricted(reversed(model.driver_labels)).driver_labels == model.driver_labels
    assert whole.mixing.tobytes() == model.mixing.tobytes()
    grid = TimeGrid.regular(1.0, 6)
    paths = [simulate(m, grid, CHUNK_PATHS + 10, seed=3).paths for m in (whole, model)]
    assert paths[0].tobytes() == paths[1].tobytes()


def _factor_order(model):
    """The model's drivers in its factor order: the FX pairs, then the assets, each in model order."""
    return [f"fx:{f.foreign}" for f in model.fx] + [a.label for a in model.assets]


def test_the_mixing_factor_is_lower_triangular_in_factor_order(three_currency_model):
    model = three_currency_model
    rows = [model.driver_labels.index(label) for label in _factor_order(model)]
    factor = model.mixing[rows]
    assert np.array_equal(factor, np.tril(factor)) and (np.diag(factor) > 0).all()
    np.testing.assert_allclose(model.mixing @ model.mixing.T, model.correlation.matrix, atol=1e-12)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_restriction_to_a_factor_prefix_simulates_the_full_models_bits(three_currency_model, n_workers):
    # the sub-model's factor is the leading block of the full one, and factor k reads the same stream in both
    model, grid = three_currency_model, TimeGrid.regular(1.0, 4)
    full = simulate(model, grid, CHUNK_PATHS + 10, seed=3, n_workers=n_workers)
    order = _factor_order(model)
    for n in range(len(order) + 1):
        sub = model.restricted(order[:n])
        assert sorted(sub.driver_labels) == sorted(order[:n])
        rows = [model.driver_labels.index(label) for label in sub.driver_labels]
        assert sub.mixing.tobytes() == model.mixing[rows, :n].tobytes()
        scenario = simulate(sub, grid, CHUNK_PATHS + 10, seed=3, n_workers=n_workers)
        for label in sub.driver_labels:
            assert scenario.driver(label).tobytes() == full.driver(label).tobytes(), (n, label)


def test_an_appended_asset_leaves_every_other_driver_byte_identical(three_currency_model):
    # the new asset is the last factor, correlated with every driver: no other driver reads it
    model, grid = three_currency_model, TimeGrid.regular(1.0, 4)
    labels = [*model.driver_labels, "GLD"]
    row = [0.2, 0.1, -0.15, 0.05, 0.3, -0.1]
    matrix = np.block([[model.correlation.matrix, np.array(row)[:, None]], [np.array([*row, 1.0])]])
    wider = build_model(
        [(c.name, c.domestic) for c in model.currencies],
        model.rates,
        [*model.assets, AssetSpec("GLD", "USD", 1800.0, 0.15, RateCurve.flat(0.0), RateCurve.flat(0.01))],
        model.fx,
        CorrelationMatrix(labels, matrix),
    )
    paths = [simulate(m, grid, CHUNK_PATHS + 10, seed=6, n_workers=2) for m in (model, wider)]
    for label in model.driver_labels:
        assert paths[1].driver(label).tobytes() == paths[0].driver(label).tobytes(), label


@pytest.mark.parametrize("label", ["EQ9", "fx:EUR", "fx:GBP"], ids=["asset", "domestic-fx", "unknown-fx"])
def test_a_restriction_to_an_unknown_driver_raises(three_currency_model, label):
    with pytest.raises(ConfigError, match="names no driver"):
        three_currency_model.restricted(["EQ1", label])


def test_the_empty_restriction_is_a_zero_driver_model(three_currency_model):
    sub = three_currency_model.restricted(())
    assert sub.currency_names == ("EUR",)
    assert (sub.assets, sub.fx, sub.driver_labels) == ((), (), ())
    assert sub.mixing.shape == (0, 0)
    assert validate_model(sub) is sub
    scenario = simulate(sub, TimeGrid.regular(1.0, 4), 10, seed=1)
    assert scenario.paths.shape == (0, 5, 10)
    assert np.all(scenario.fx("EUR") == 1.0)
