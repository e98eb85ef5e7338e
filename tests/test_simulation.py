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
    qe_asset_drift,
    qe_fx_drift,
    simulate,
)
from xccy.bsde import BsdeConfig
from xccy.curves import RateCurve
from xccy.errors import ConfigError, DomesticPairRequested, EmptyGrid, ZeroPaths
from xccy.model import CorrelationMatrix
from xccy.simulation import CHUNK_PATHS, worker_threads


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
    a = two_currency_model.asset("EQ")
    assert qe_asset_drift(two_currency_model, a, 0.5) == pytest.approx(0.015 - 0.01, abs=1e-15)


def test_foreign_asset_drift_has_quanto_correction(two_currency_model):
    a = two_currency_model.asset("FEQ")
    # repo 0.028, no dividends, rho(FEQ, fx:USD) = -0.4, sigma_S = 0.25, sigma_X = 0.1
    expected = 0.028 - 0.0 - (-0.4) * 0.25 * 0.1
    assert qe_asset_drift(two_currency_model, a, 0.0) == pytest.approx(expected, abs=1e-15)


def test_foreign_asset_zero_correlation_drops_correction():
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.01, 0.005, 0.005)}
    assets = [AssetSpec("F", "USD", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 1.0, 0.1)])
    assert qe_asset_drift(model, model.asset("F"), 0.0) == pytest.approx(0.01, abs=1e-15)


def test_quanto_correction_direct_substitution():
    # r=0.01, kappa=0, rho=1, sigma_S=0.2, sigma_X=0.1 -> drift = 0.01 - 0.02 = -0.01
    rates = {"EUR": curveset(0.0, 0.0, 0.0), "USD": curveset(0.0, 0.0, 0.0)}
    assets = [AssetSpec("F", "USD", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    corr = CorrelationMatrix(["F", "fx:USD"], [[1.0, 1.0], [1.0, 1.0]])
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 1.0, 0.1)], corr)
    assert qe_asset_drift(model, model.asset("F"), 0.0) == pytest.approx(-0.01, abs=1e-15)


def test_fx_drift_is_unsecured_differential(two_currency_model):
    assert qe_fx_drift(two_currency_model, "USD", 0.2) == pytest.approx(0.02 - 0.03, abs=1e-15)
    with pytest.raises(DomesticPairRequested):
        qe_fx_drift(two_currency_model, "EUR", 0.0)


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
    lhs = qe_fx_drift(model, "USD", 0.0)
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


def test_physical_measure_uses_configured_drift():
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.01, 0.01)}
    assets = [AssetSpec("EQ", "EUR", 100.0, 1e-12, RateCurve.flat(0.0), RateCurve.flat(0.01), mu=0.07)]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 1e-12, mu=0.04)])
    grid = TimeGrid.regular(1.0, 4)
    phys = simulate(model, grid, 2, seed=0, measure="p")
    assert phys.measure_tag == "p"
    assert phys.asset("EQ")[:, -1] == pytest.approx(100.0 * math.exp(0.07), rel=1e-6)
    assert phys.fx("USD")[:, -1] == pytest.approx(0.9 * math.exp(0.04), rel=1e-6)
    # without configured drifts, the physical run falls back to pricing drifts
    rn = simulate(model, grid, 2, seed=0)
    assert rn.asset("EQ")[:, -1] == pytest.approx(100.0 * math.exp(0.01), rel=1e-6)
