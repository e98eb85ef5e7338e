import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    FxSpec,
    TimeGrid,
    cross_currency_basis,
    qe_drift_of,
    simulate,
)
from xccy.bsde import BsdeConfig
from xccy.curves import RateCurve
from xccy.errors import ConfigError, DomesticPairRequested, EmptyGrid, ZeroPaths
from xccy.model import CorrelationMatrix
from xccy.simulation import CHUNK_PATHS, UNIT_RATE, worker_threads


def drift_at(model, label, t):
    """Instantaneous drift of a driver at t."""
    return qe_drift_of(model, label, lambda curve: curve.rate(t))


def test_grid_snaps_flow_dates_exactly():
    grid = TimeGrid.regular(1.0, 3, include=[0.3333333333333333, 0.75])
    assert 0.3333333333333333 in grid.times
    assert 0.75 in grid.times
    assert grid.times[0] == 0.0 and grid.times[-1] == 1.0


def test_grid_rejects_degenerate_inputs():
    with pytest.raises(EmptyGrid):
        TimeGrid([0.0])
    with pytest.raises(EmptyGrid):
        TimeGrid([0.1, 0.5])
    with pytest.raises(EmptyGrid):
        TimeGrid.regular(0.0, 5)


def test_domestic_asset_drift_is_repo_minus_dividend(two_currency_model):
    assert drift_at(two_currency_model, "EQ", 0.5) == pytest.approx(0.015 - 0.01, abs=1e-15)


def test_foreign_asset_drift_has_quanto_correction(two_currency_model):
    # repo 0.028, no dividends, rho(FEQ, fx:USD) = -0.4, sigma_S = 0.25, sigma_X = 0.1
    expected = 0.028 - 0.0 - (-0.4) * 0.25 * 0.1
    assert drift_at(two_currency_model, "FEQ", 0.0) == pytest.approx(expected, abs=1e-15)


def test_foreign_asset_zero_correlation_drops_correction():
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.01, 0.005, 0.005)}
    assets = [AssetSpec("F", "USD", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 1.0, 0.1)])
    assert drift_at(model, "F", 0.0) == pytest.approx(0.01, abs=1e-15)


def test_quanto_correction_direct_substitution():
    # r=0.01, kappa=0, rho=1, sigma_S=0.2, sigma_X=0.1 -> drift = 0.01 - 0.02 = -0.01
    rates = {"EUR": curveset(0.0, 0.0, 0.0), "USD": curveset(0.0, 0.0, 0.0)}
    assets = [AssetSpec("F", "USD", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    corr = CorrelationMatrix(["F", "fx:USD"], [[1.0, 1.0], [1.0, 1.0]])
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 1.0, 0.1)], corr)
    assert drift_at(model, "F", 0.0) == pytest.approx(-0.01, abs=1e-15)


def test_fx_drift_is_unsecured_differential(two_currency_model):
    assert drift_at(two_currency_model, "fx:USD", 0.2) == pytest.approx(0.02 - 0.03, abs=1e-15)
    with pytest.raises(DomesticPairRequested):
        drift_at(two_currency_model, "fx:EUR", 0.0)


@given(
    r_e=st.floats(-0.05, 0.08),
    r_k=st.floats(-0.05, 0.08),
    rc_e=st.floats(-0.05, 0.08),
    rc_k=st.floats(-0.05, 0.08),
)
@settings(max_examples=100, deadline=None)
def test_fx_drift_equals_collateral_differential_plus_basis(r_e, r_k, rc_e, rc_k):
    rates = {"EUR": curveset(r_e, rc_e, rc_e), "USD": curveset(r_k, rc_k, rc_k)}
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 1.0, 0.1)])
    lhs = drift_at(model, "fx:USD", 0.0)
    rhs = (rc_e - rc_k) + cross_currency_basis(model, "USD", 0.0)
    assert abs(lhs - rhs) <= 1e-15


def test_zero_volatility_paths_are_deterministic_exponentials():
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.05, 0.01, 0.01)}
    assets = [AssetSpec("EQ", "EUR", 100.0, 1e-12, RateCurve.flat(0.01), RateCurve.flat(0.03))]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 2.0, 1e-12)])
    grid = TimeGrid.regular(2.0, 4)
    scen = simulate(model, grid, 3, seed=0)
    for j, t in enumerate(grid.times):
        assert scen.asset("EQ")[:, j] == pytest.approx(100.0 * math.exp(0.02 * t), rel=1e-6)
        assert scen.fx("USD")[:, j] == pytest.approx(2.0 * math.exp(-0.03 * t), rel=1e-6)


def test_fx_discounted_account_is_empirical_martingale(two_currency_model):
    grid = TimeGrid.regular(1.0, 8)
    scen = simulate(two_currency_model, grid, 100_000, seed=2024)
    x = scen.fx("USD")[:, -1] * scen.account("USD")[-1] / scen.account("EUR")[-1]
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - 0.9) <= 3 * se


def test_one_step_log_return_correlation():
    rates = {"EUR": curveset(0.0, 0.0, 0.0)}
    assets = [
        AssetSpec("A", "EUR", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.0)),
        AssetSpec("B", "EUR", 1.0, 0.3, RateCurve.flat(0.0), RateCurve.flat(0.0)),
    ]
    corr = CorrelationMatrix(["A", "B"], [[1.0, 0.5], [0.5, 1.0]])
    model = build_model([("EUR", True)], rates, assets, correlation=corr)
    scen = simulate(model, TimeGrid([0.0, 1.0]), 100_000, seed=7)
    ra = np.log(scen.asset("A")[:, 1])
    rb = np.log(scen.asset("B")[:, 1])
    rho = np.corrcoef(ra, rb)[0, 1]
    assert rho == pytest.approx(0.5, abs=0.01)


def test_positivity_and_domestic_fx_identity(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 5), 500, seed=1)
    assert np.all(scen.asset("EQ") > 0)
    assert np.all(scen.asset("FEQ") > 0)
    assert np.all(scen.fx("USD") > 0)
    assert np.array_equal(scen.fx("EUR"), np.ones((500, 6)))


def test_domestic_fx_is_a_read_only_view_of_one(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 5), 500, seed=1)
    x = scen.fx("EUR")
    assert np.array_equal(x, np.ones((500, 6)))
    assert not x.flags.writeable
    assert x.strides == (0, 0)  # one broadcast scalar, no (n_paths, n_times) buffer
    assert x.base.nbytes == 8


def test_bit_identical_across_worker_counts(two_currency_model):
    grid = TimeGrid.regular(1.0, 6)
    for n_paths in (1000, 2 * CHUNK_PATHS + 1000):  # one chunk; three, the last ragged
        one = simulate(two_currency_model, grid, n_paths, seed=5, n_workers=1)
        eight = simulate(two_currency_model, grid, n_paths, seed=5, n_workers=8)
        for label in ("EQ", "FEQ"):
            assert np.array_equal(one.asset(label), eight.asset(label))
        assert np.array_equal(one.fx("USD"), eight.fx("USD"))


def test_same_seed_reproduces_same_paths(two_currency_model):
    grid = TimeGrid.regular(1.0, 6)
    a = simulate(two_currency_model, grid, 64, seed=11)
    b = simulate(two_currency_model, grid, 64, seed=11)
    c = simulate(two_currency_model, grid, 64, seed=12)
    assert np.array_equal(a.asset("EQ"), b.asset("EQ"))
    assert not np.array_equal(a.asset("EQ"), c.asset("EQ"))


def test_zero_paths_rejected(two_currency_model):
    with pytest.raises(ZeroPaths):
        simulate(two_currency_model, TimeGrid.regular(1.0, 2), 0, seed=0)


@pytest.mark.parametrize("n_workers", [0, -3])
def test_nonpositive_workers_rejected(two_currency_model, n_workers):
    with pytest.raises(ConfigError):
        simulate(two_currency_model, TimeGrid.regular(1.0, 2), 10, seed=0, n_workers=n_workers)
    with pytest.raises(ConfigError):
        BsdeConfig(grid=TimeGrid.regular(1.0, 2), n_paths=10, n_workers=n_workers)


def test_thread_count_capped_by_cpus_and_chunks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_threads(100_000, 13) == 4
    assert worker_threads(2, 13) == 2
    assert worker_threads(8, 3) == 3
    assert worker_threads(1, 13) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable: one thread
    assert worker_threads(8, 13) == 1


def test_drift_shift_moves_the_mean(two_currency_model):
    grid = TimeGrid.regular(1.0, 4)
    base = simulate(two_currency_model, grid, 20000, seed=3)
    shifted = simulate(two_currency_model, grid, 20000, seed=3, drift_shift={"fx:USD": 0.02})
    ratio = shifted.fx("USD")[:, -1].mean() / base.fx("USD")[:, -1].mean()
    assert ratio == pytest.approx(math.exp(0.02), rel=1e-12)
    assert shifted.measure_tag == "p"


# sha256 of every driver's path bytes, in driver order, on TimeGrid.regular(2.0, 16)
# with 300 paths at seed 11; recorded when the drifts had two definitions, so
# any change to the drift arithmetic, the draws or the stepping shows here.
# The bytes go through numpy's exp and log, which may round differently on
# another CPU or numpy build.
PATH_DIGESTS = [
    ("two_currency_model", None, "ead19fe90dc5ce34ac25abf71c3a51d5132eaf6803e8187fb4d0b5b2b580060c"),
    (
        "two_currency_model",
        {"fx:USD": 0.02, "EQ": 0.02},
        "99468d6f7da3f2dddbc4d1b9bd4374996067ba3875b96535fd6582a2a52f656d",
    ),
    ("multi_knot_model", None, "cc8615dded6812dc29bf94ad1a289085ecb9cb16a6ee81a143b27cde90e0fd50"),
]


@pytest.mark.parametrize("fixture,drift_shift,digest", PATH_DIGESTS)
def test_paths_known_answer(request, fixture, drift_shift, digest):
    model = request.getfixturevalue(fixture)
    scen = simulate(model, TimeGrid.regular(2.0, 16), 300, seed=11, drift_shift=drift_shift)
    h = hashlib.sha256()
    for label in model.driver_labels:
        h.update(scen.driver(label).tobytes())
    assert h.hexdigest() == digest


def _with_foreign_asset(model, rho, sigma, repo, dividend):
    """``model`` plus an asset F quoted in USD, correlated ``rho`` with fx:USD."""
    assets = [AssetSpec("F", "USD", 10.0, sigma, dividend, repo)]
    corr = CorrelationMatrix(["F", "fx:USD"], [[1.0, rho], [rho, 1.0]])
    currencies = [(c.name, c.domestic) for c in model.currencies]
    return build_model(currencies, dict(model.rates), assets, model.fx, corr)


knotted_curves = st.lists(
    st.tuples(st.floats(0.01, 2.5), st.floats(-0.05, 0.08)), max_size=4, unique_by=lambda kv: kv[0]
).map(lambda kvs: RateCurve([0.0] + sorted(k for k, _ in kvs), [0.01] + [v for _, v in sorted(kvs)]))


@given(
    rho=st.floats(-1.0, 1.0),
    sigma=st.floats(0.01, 0.6),
    repo=knotted_curves,
    dividend=knotted_curves,
    shift=st.sampled_from([0.0, 0.02]),
    inner=st.lists(st.floats(0.001, 2.4), max_size=12),
    on_knots=st.lists(st.sampled_from([0.3, 0.5, 0.75, 1.25]), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_step_drift_is_the_integral_of_the_instantaneous_drift(
    multi_knot_model, rho, sigma, repo, dividend, shift, inner, on_knots
):
    model = _with_foreign_asset(multi_knot_model, rho, sigma, repo, dividend)
    times = np.unique([0.0, 2.5] + inner + on_knots)
    assert np.array_equal(UNIT_RATE.step_integrals(times), np.diff(times))
    curves = [model.curve("EUR", "unsecured"), model.curve("USD", "unsecured"), repo, dividend]
    knots = np.concatenate([c.knots for c in curves])
    # error scale per unit time: the summed magnitudes of the drift's terms
    scale = sum(c.max_abs() for c in curves) + abs(rho * sigma * 0.1) + shift
    for label in ("F", "fx:USD"):
        steps = qe_drift_of(model, label, lambda curve: curve.step_integrals(times), shift)
        for j, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
            edges = np.unique(np.concatenate([[t0, t1], knots[(knots > t0) & (knots < t1)]]))
            ref = math.fsum(
                qe_drift_of(model, label, lambda curve: curve.rate(a), shift) * (b - a)
                for a, b in zip(edges[:-1], edges[1:])
            )
            assert abs(steps[j] - ref) <= 1e-14 * scale * (t1 - t0)
