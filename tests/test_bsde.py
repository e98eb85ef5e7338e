import math
from pathlib import Path

import numpy as np
import pytest

from conftest import build_model, curveset, peak_traced_bytes
from xccy import (
    AssetSpec,
    BsdeConfig,
    Contract,
    CorrelationMatrix,
    FxSpec,
    RateCurve,
    TimeGrid,
    cross_currency_basis,
    load_model,
    price_fully_collateralized,
    simulate,
    solve_endogenous,
    validate_model,
)
from xccy.bsde import _regress, _slice_denominator, discrete_value, rounding_floor
from xccy.errors import AsymmetricCollateralRates, ConfigError, NumericalError, SingularRegression
from xccy.model import cross_currency_basis_of
from xccy.rng import normal_block
from xccy.simulation import CHUNK_PATHS, _simulate_log_chunk, _step_coefficients, sample_mean
from xccy.wealth import flow_amounts, flow_nodes


def _cfg(n_steps=25, n_paths=20_000, seed=11, **kw):
    return BsdeConfig(grid=TimeGrid.regular(1.0, n_steps), n_paths=n_paths, seed=seed, **kw)


def _sub_model(model, contract):
    """The sub-model the solver simulates: the FX driver of the flows' currency, none for domestic flows."""
    return model.restricted(model.fx_drivers(contract.native_currency))


def test_zero_contract_gives_zero_surface(bsde_two_currency_model):
    res = solve_endogenous(bsde_two_currency_model, Contract.zero("EUR"), "USD", 0.1, 0.2, _cfg(n_paths=500))
    assert res.v0 == 0.0
    assert np.all(res.surface == 0.0)


def test_zero_haircuts_match_closed_form_foreign_collateral(bsde_two_currency_model):
    contract = Contract("EUR", ((1.0, -1.0),))
    res = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 0.0, _cfg())
    closed = price_fully_collateralized(bsde_two_currency_model, contract, "USD")
    assert abs(res.v0 / closed - 1.0) < 2e-3
    # a domestic-currency payment is deterministic: no statistical error
    assert res.v0_std_error <= 1e-12


def test_zero_haircuts_match_closed_form_domestic_collateral(bsde_two_currency_model):
    contract = Contract("EUR", ((1.0, -1.0),))
    res = solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.0, 0.0, _cfg())
    assert abs(res.v0 / math.exp(-0.015) - 1.0) < 2e-3


def test_zero_haircuts_match_closed_form_foreign_flows(bsde_two_currency_model):
    contract = Contract("USD", ((1.0, -1.0),))
    res = solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.0, 0.0, _cfg())
    closed = price_fully_collateralized(bsde_two_currency_model, contract, "EUR")
    assert abs(res.v0 / closed - 1.0) < 2e-3
    assert res.v0_std_error > 0
    assert abs(res.v0 - closed) <= 4 * res.v0_std_error


def test_v0_std_error_is_the_slice_zero_sample_error(bsde_two_currency_model):
    # one step: v0 = mean(y) / den with y = -amount * X_T, so SE / v0 = std(y) / (sqrt(n) mean(y))
    # over the n = n_paths / 2 antithetic pair means of y
    contract = Contract("USD", ((1.0, -1.0),))
    cfg = _cfg(n_steps=1, n_paths=4000)
    res = solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.5, 0.5, cfg)
    y = simulate(_sub_model(bsde_two_currency_model, contract), cfg.grid, cfg.n_paths, cfg.seed).fx("USD")[:, 1]
    assert res.v0 != pytest.approx(np.mean(y), rel=1e-3)
    pairs = 0.5 * (y[0::2] + y[1::2])
    expected = np.std(pairs, ddof=1) / math.sqrt(cfg.n_paths // 2) * res.v0 / np.mean(pairs)
    assert res.v0_std_error == pytest.approx(expected, rel=1e-12)


def test_v0_std_error_matches_the_spread_over_seeds(bsde_two_currency_model):
    # the error bar must describe how v0 moves from seed to seed; the spread of
    # the regressed slice values understates it by about sqrt(n_steps)
    contract = Contract("USD", ((1.0, -1.0),))
    results = [
        solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.0, 0.0, _cfg(n_paths=5000, seed=seed))
        for seed in range(11, 31)
    ]
    spread = np.std([r.v0 for r in results], ddof=1)
    median_se = np.median([r.v0_std_error for r in results])
    assert 0.5 * spread <= median_se <= 2.0 * spread


def test_haircut_cost_is_monotone(bsde_two_currency_model):
    # hedger receives at T -> value negative on all paths -> collateral received
    # scales with delta1; with a positive funding-over-collateral spread the
    # extra margin is a cost, so v0 cannot increase
    model = bsde_two_currency_model
    spread = (
        0.02
        - 0.015
        - cross_currency_basis(model, "USD", 0.0)
    )
    assert spread > 0
    contract = Contract("EUR", ((1.0, 1.0),))
    cfg = _cfg(n_paths=4000)
    v_base = solve_endogenous(model, contract, "USD", 0.0, 0.0, cfg).v0
    v_up = solve_endogenous(model, contract, "USD", 0.5, 0.0, cfg).v0
    assert v_base < 0
    assert v_up <= v_base + 1e-12


def test_driver_lipschitz_bound(bsde_two_currency_model):
    # |f(v) - f(w)| <= (|r_e| + |spread| (1 + max(d1, d2))) |v - w|
    model = bsde_two_currency_model
    r_e = 0.02
    q = float(cross_currency_basis(model, "USD", 0.0))
    spread = 0.02 - 0.015 - q
    d1, d2 = 0.3, 0.1
    bound = abs(r_e) + abs(spread) * (1.0 + max(d1, d2))

    def f(v):
        chat = (1 + d1) * np.maximum(-v, 0.0) - (1 + d2) * np.maximum(v, 0.0)
        return r_e * v + spread * chat

    rng = np.random.default_rng(0)
    v, w = rng.normal(size=1000), rng.normal(size=1000)
    lhs = np.abs(f(v) - f(w))
    assert np.all(lhs <= bound * np.abs(v - w) + 1e-12)


def test_grid_refinement_stays_within_statistical_band(bsde_two_currency_model):
    contract = Contract("USD", ((1.0, -1.0),))
    coarse = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.1, 0.1, _cfg(n_steps=20))
    fine = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.1, 0.1, _cfg(n_steps=40))
    # statistical error of the estimate at 2e4 paths, sigma_X ~ 0.1
    band = 3 * 0.9 * 0.12 / math.sqrt(20_000)
    assert abs(coarse.v0 - fine.v0) < band


def test_picard_counts_are_small_and_recorded(bsde_two_currency_model):
    res = solve_endogenous(
        bsde_two_currency_model, Contract("EUR", ((1.0, -1.0),)), "USD", 0.2, 0.3, _cfg(n_paths=2000)
    )
    assert len(res.picard_counts) == res.grid.n_steps
    assert max(res.picard_counts) <= 6


def test_flow_dates_must_lie_on_grid(bsde_two_currency_model):
    contract = Contract("EUR", ((0.123456789, -1.0),))
    with pytest.raises(ConfigError):
        solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 0.0, _cfg(n_paths=100))


@pytest.mark.parametrize("haircuts", [(math.inf, 0.0), (0.0, math.nan)], ids=["delta1", "delta2"])
def test_non_finite_haircut_rejected_before_simulating(bsde_two_currency_model, monkeypatch, haircuts):
    # the solver takes haircuts apart from any CollateralSpec, so it checks them itself
    monkeypatch.setattr("xccy.bsde._simulate_log_chunk", lambda *a: pytest.fail("simulated"))
    with pytest.raises(ConfigError, match="must be finite and exceed -1"):
        solve_endogenous(bsde_two_currency_model, Contract("EUR", ((1.0, -1.0),)), "USD", *haircuts, _cfg(n_paths=100))


def test_non_finite_design_is_a_singular_regression(capfd):
    # rejected before lstsq, whose LAPACK routine would print "DLASCL parameter number 4" on a NaN
    design = np.ones((2, 8))
    design[1] = np.arange(8.0)
    design[1, 3] = math.nan
    with pytest.raises(SingularRegression):
        _regress(design, np.arange(8.0))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("amount", [-1e308, -1.7e308], ids=["sum", "conversion"])
def test_an_overflowing_regression_target_is_a_singular_regression(bsde_two_currency_model, amount):
    # four steps: slices 1-3 regress the foreign flow, whose sum over the paths overflows, or its
    # conversion at X_USD > 1.06 already; a RuntimeWarning would fail the test before the error is raised
    contract = Contract("USD", ((1.0, amount),))
    with pytest.raises(SingularRegression, match="non-finite regression design or target"):
        solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.0, 0.0, _cfg(n_steps=4, n_paths=2000, seed=1))


def test_asymmetric_collateral_rates_rejected():
    rates = {
        "EUR": curveset(0.02, 0.016, 0.015, cash_post=0.02),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.02),
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    with pytest.raises(AsymmetricCollateralRates):
        solve_endogenous(model, Contract("EUR", ((1.0, -1.0),)), "USD", 0.0, 0.0, _cfg(n_paths=100))


def test_cash_posting_must_fund_at_domestic_rate(two_currency_model):
    # the general fixture posts USD cash at 0.03 != domestic 0.02
    with pytest.raises(ConfigError):
        solve_endogenous(two_currency_model, Contract("EUR", ((1.0, -1.0),)), "USD", 0.0, 0.0, _cfg(n_paths=100))


@pytest.mark.parametrize("last_rate, accepted", [(0.025, True), (0.026, False)])
def test_cash_posting_curve_is_compared_knot_by_knot(last_rate, accepted):
    rates = {
        "EUR": curveset(RateCurve([0.0, 0.5], [0.02, 0.025]), 0.015, 0.015),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=RateCurve([0.0, 0.5], [0.02, last_rate])),
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    args = (model, Contract("EUR", ((1.0, -1.0),)), "USD", 0.0, 0.0, _cfg(2, 100))
    if accepted:
        assert solve_endogenous(*args).v0 > 0
    else:
        with pytest.raises(ConfigError):
            solve_endogenous(*args)


def test_degenerate_state_takes_the_rank_deficient_fit(monkeypatch):
    # a zero USD volatility makes the state log(X_USD / x0) the same on every path, so the
    # powers of each slice span one direction; lstsq's minimum-norm fit must still discount correctly
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.02),
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.0)])
    ranks = []

    def counting(design, target):
        ranks.append(np.linalg.matrix_rank(design @ design.T))
        return _regress(design, target)

    monkeypatch.setattr("xccy.bsde._regress", counting)
    contract = Contract("USD", ((1.0, -1.0),))
    res = solve_endogenous(model, contract, "EUR", 0.0, 0.0, _cfg(n_steps=20, n_paths=500))
    assert ranks == [1] * 19  # every slice but slice 0, whose value is a plain mean
    assert res.v0 == pytest.approx(price_fully_collateralized(model, contract, "EUR"), rel=2e-3)


def test_multi_flow_contract_matches_closed_form(bsde_two_currency_model):
    contract = Contract("EUR", ((0.5, 2.0), (1.0, -3.0)))
    grid = TimeGrid.regular(1.0, 25, include=contract.flow_times)
    cfg = BsdeConfig(grid=grid, n_paths=20_000, seed=11)
    res = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 0.0, cfg)
    closed = price_fully_collateralized(bsde_two_currency_model, contract, "USD")
    assert abs(res.v0 - closed) < 2e-3 * abs(closed) + 1e-6


@pytest.mark.parametrize("n_drivers", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_in_place_design_matches_column_stack_reference(bsde_two_currency_model, degree, n_drivers):
    # the solver's in-place powers against np.vander's column stack, bit for bit, at each degree
    # and whatever drivers besides fx:USD the model holds: the trade reads that one state alone
    model = bsde_two_currency_model.restricted(["EQ", "FEQ", "fx:USD"][3 - n_drivers :])
    contract = Contract("USD", ((0.5, 2.0), (1.0, -1.0)))
    cfg = BsdeConfig(grid=TimeGrid.regular(1.0, 6, include=contract.flow_times), n_paths=2000, seed=2, degree=degree)
    res = solve_endogenous(model, contract, "EUR", 0.4, 0.1, cfg)
    ref_surface, ref_u = _stored_path_solver(model, contract, "EUR", 0.4, 0.1, cfg)
    assert res.surface[:, 1:].tobytes() == ref_surface[:, 1:].tobytes()
    assert (res.v0, res.v0_std_error) == sample_mean(ref_u)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_fit_is_the_least_squares_fit_of_the_powers(degree):
    rng = np.random.default_rng(degree)
    state = 0.2 * rng.standard_normal(5000)  # a log-state
    y = np.exp(state) + 0.1 * rng.standard_normal(5000)
    basis = np.vander(state, degree + 1, increasing=True)
    reference = basis @ np.linalg.solve(basis.T @ basis, basis.T @ y)
    np.testing.assert_allclose(_regress(np.ascontiguousarray(basis.T), y) @ basis.T, reference, rtol=1e-12)


def test_constant_state_design_takes_the_minimum_norm_fit():
    rng = np.random.default_rng(3)
    y = np.exp(0.2 * rng.standard_normal(4000))
    design = np.ascontiguousarray(np.vander(np.full(4000, -0.03), 3, increasing=True).T)  # 1, s, s^2: rank one
    assert np.linalg.matrix_rank(design @ design.T) == 1
    np.testing.assert_allclose(_regress(design, y) @ design, np.mean(y), rtol=1e-12)


def _picard_slice(cont, dr, ds, delta1, delta2, tol=1e-15, cap=200):
    """The pointwise Picard iteration for v = cont - (dr v + ds Chat(v))."""
    v = cont.copy()
    for _ in range(cap):
        chat = (1 + delta1) * np.maximum(-v, 0.0) - (1 + delta2) * np.maximum(v, 0.0)
        candidate = cont - (dr * v + ds * chat)
        resid = np.max(np.abs(candidate - v)) / max(1.0, np.max(np.abs(v)))
        v = candidate
        if resid < tol:
            break
    return v


@pytest.mark.parametrize("delta1,delta2", [(0.0, 0.0), (0.1, 0.05), (2.0, 3.0)])
def test_exact_slice_solve_matches_picard_reference(delta1, delta2):
    rng = np.random.default_rng(5)
    cont = rng.standard_normal(1000)
    cont[:3] = (0.0, -0.0, 1e-300)
    dr, ds = 0.02 / 25, 0.008 / 25
    exact = cont / _slice_denominator(cont, dr, ds, delta1, delta2)
    assert (cont < 0).any() and (cont > 0).any()
    np.testing.assert_allclose(exact, _picard_slice(cont, dr, ds, delta1, delta2), rtol=1e-14, atol=0)


def test_nonpositive_slice_denominator_raises(bsde_two_currency_model):
    # positive value, spread 0.008 / 25 per step: 1 + dr - ds (1 + delta2) < 0
    contract = Contract("EUR", ((1.0, -1.0),))
    with pytest.raises(NumericalError, match="denominator"):
        solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 1e4, _cfg(n_paths=500))


def test_a_non_positive_denominator_raises_only_where_a_path_selects_it():
    # delta1 is too large for the step: 1 + dr - ds (1 + delta1) < 0, the denominator where cont < 0
    dr, ds, delta1, delta2 = 0.02 / 25, 0.008 / 25, 1e4, 0.1
    cont = np.abs(np.random.default_rng(3).standard_normal(1000))
    cont[:2] = (0.0, -0.0)  # not below 0: they take delta2
    assert np.all(_slice_denominator(cont, dr, ds, delta1, delta2) == 1.0 + dr - ds * (1.0 + delta2))
    cont[500] = -1e-300
    with pytest.raises(NumericalError, match="denominator"):
        _slice_denominator(cont, dr, ds, delta1, delta2)


@pytest.mark.parametrize("cont", [-0.7, 0.0, -0.0, 1.3])
def test_one_continuation_number_divides_as_the_per_path_array(cont):
    # a path-constant slice keeps its continuation value as one number: each path's value keeps its bits
    dr, ds, delta1, delta2 = 0.02 / 25, 0.008 / 25, 0.4, 0.2
    per_path = np.full(7, cont)
    den = _slice_denominator(cont, dr, ds, delta1, delta2)
    assert den.shape == ()
    row = np.empty(7)
    np.divide(cont, den, out=row)
    assert row.tobytes() == (per_path / _slice_denominator(per_path, dr, ds, delta1, delta2)).tobytes()
    with pytest.raises(NumericalError, match="non-positive slice denominator"):
        _slice_denominator(cont, dr, ds, 1e4, 1e4)


def test_one_path_has_no_error_bar(bsde_two_currency_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the path count was checked")

    monkeypatch.setattr("xccy.bsde._simulate_log_chunk", refuse)
    with pytest.raises(ConfigError, match="at least 4 paths"):
        solve_endogenous(bsde_two_currency_model, Contract("EUR", ((1.0, -1.0),)), "USD", 0.0, 0.0, _cfg(n_paths=1))


def test_negative_regression_degree_is_rejected():
    with pytest.raises(ConfigError, match="regression degree must be >= 0, got -1"):
        _cfg(degree=-1)


def _stored_path_solver(model, contract, k3, delta1, delta2, cfg):
    """Reference: the solver that held every path and fitted every slice on all of them, for a foreign trade.

    Its state is the log-path of the simulation's log-path kernel on the
    sub-model of the flows' FX driver, chunk by chunk, and its basis the
    powers of that state from ``np.vander``; its flows are converted at the
    levels :func:`simulate` stores for that sub-model.
    Returns its surface (n_paths, n_times), whose row 0 is the regressed
    slice-0 value, and the pathwise values u.
    """
    grid, n_paths, times = cfg.grid, cfg.n_paths, cfg.grid.times
    flows = np.zeros(grid.n_steps + 1)
    np.add.at(flows, flow_nodes(grid, contract), [a for _, a in contract.flows])
    sub_model = _sub_model(model, contract)
    scenario = simulate(sub_model, grid, n_paths, cfg.seed, n_workers=cfg.n_workers)
    drift, vol, _ = _step_coefficients(sub_model, grid, {})
    every_driver = np.arange(len(sub_model.driver_labels))
    logs = np.empty_like(scenario.paths)
    for lo in range(0, n_paths, CHUNK_PATHS):
        _simulate_log_chunk(logs[:, :, lo : lo + CHUNK_PATHS], cfg.seed, drift, vol, lo // CHUNK_PATHS, every_driver)
    r_e = model.curve(model.domestic, "unsecured")
    r_int = r_e.step_integrals(times)
    spread_int = (
        r_int
        - model.curve(model.domestic, "collateral_lend").step_integrals(times)
        - cross_currency_basis_of(model, k3, lambda curve: curve.step_integrals(times))
    )
    fx_k2 = scenario.fx(contract.native_currency)
    surface = np.zeros((grid.n_steps + 1, n_paths))
    v = surface[grid.n_steps]
    u = np.zeros(n_paths)
    for j in range(grid.n_steps - 1, -1, -1):
        paid = flows[j + 1] * fx_k2[:, j + 1]
        y = v - paid
        if j == 0:
            cont = np.full(n_paths, float(np.mean(y)))
        else:
            design = np.ascontiguousarray(np.vander(logs[0, j], cfg.degree + 1, increasing=True).T)
            cont = _regress(design, y) @ design
        den = _slice_denominator(cont, r_int[j], spread_int[j], delta1, delta2)
        v = np.divide(cont, den, out=surface[j])
        u -= paid
        u /= den
    return surface.T, u


STREAMED_CASES = [
    ("USD", "EUR", 0.5, 0.5, 12, 5000),  # foreign flows: a path-dependent value
    ("USD", "USD", 0.3, 0.1, 8, CHUNK_PATHS),  # one full chunk
    ("USD", "USD", 0.0, 0.2, 1, 700),  # one step: slice 0 only
]


@pytest.mark.parametrize("native, k3, delta1, delta2, n_steps, n_paths", STREAMED_CASES)
def test_one_chunk_matches_the_stored_path_solver(
    bsde_two_currency_model, native, k3, delta1, delta2, n_steps, n_paths
):
    # at most CHUNK_PATHS paths the fit sees every path, as the stored-path solver did:
    # the same bits everywhere but row 0, which is now v0, the mean of u, on every path
    contract = Contract(native, ((0.5, 2.0), (1.0, -1.0))) if n_steps > 1 else Contract(native, ((1.0, -1.0),))
    grid = TimeGrid.regular(1.0, n_steps, include=contract.flow_times)
    cfg = BsdeConfig(grid=grid, n_paths=n_paths, seed=9)
    res = solve_endogenous(bsde_two_currency_model, contract, k3, delta1, delta2, cfg)
    ref_surface, ref_u = _stored_path_solver(bsde_two_currency_model, contract, k3, delta1, delta2, cfg)
    assert res.surface[:, 1:].tobytes() == ref_surface[:, 1:].tobytes()
    assert (res.v0, res.v0_std_error) == sample_mean(ref_u)
    assert np.all(res.surface[:, 0] == res.v0)


def test_streamed_solver_simulates_no_more_than_one_chunk_at_once(bsde_two_currency_model, monkeypatch):
    requests = []

    def recording(block, seed, drift, vol, chunk, rows):
        requests.append((chunk, block.shape[2]))
        return _simulate_log_chunk(block, seed, drift, vol, chunk, rows)

    monkeypatch.setattr("xccy.bsde._simulate_log_chunk", recording)
    contract = Contract("USD", ((1.0, -1.0),))
    n_paths = 2 * CHUNK_PATHS + 1000
    res = solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.2, 0.1, _cfg(n_steps=6, n_paths=n_paths))
    # each chunk simulated once, the pilot chunk 0 first, none wider than CHUNK_PATHS
    assert requests == [(0, CHUNK_PATHS), (1, CHUNK_PATHS), (2, 1000)]
    assert res.surface.shape == (n_paths, 7)
    assert np.all(res.surface[:, 0] == res.v0)
    # the slices are fitted on chunk 0 alone, so its values are those of a one-chunk run
    pilot = solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.2, 0.1, _cfg(n_steps=6, n_paths=CHUNK_PATHS))
    assert res.surface[:CHUNK_PATHS, 1:].tobytes() == pilot.surface[:, 1:].tobytes()


def test_streamed_result_does_not_depend_on_the_worker_count(bsde_two_currency_model, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)  # let the workers start up to four threads
    contract = Contract("USD", ((0.6, 1.5), (1.0, -1.0)))
    grid = TimeGrid.regular(1.0, 5, include=contract.flow_times)
    # three chunks, two after the pilot, so two and three workers both start two threads;
    # one chunk leaves no chunk after the pilot to value
    for n_paths in (2 * CHUNK_PATHS + 322, 1000):
        one, *others = [
            solve_endogenous(
                bsde_two_currency_model, contract, "EUR", 0.4, 0.2,
                BsdeConfig(grid=grid, n_paths=n_paths, seed=4, n_workers=workers),
            )
            for workers in (1, 2, 3)
        ]
        for other in others:
            assert one.surface.tobytes() == other.surface.tobytes()
            assert (one.v0, one.v0_std_error, one.picard_counts) == (
                other.v0, other.v0_std_error, other.picard_counts
            )


def test_later_chunks_value_their_own_scenario_paths(bsde_two_currency_model):
    # with delta1 == delta2 every slice denominator is one number, so u is X_T times a
    # constant and SE / v0 = std(X_T) / (sqrt(n) mean(X_T)) over the whole scenario's
    # n = n_paths / 2 antithetic pair means of X_T
    contract = Contract("USD", ((1.0, -1.0),))
    cfg = _cfg(n_steps=3, n_paths=2 * CHUNK_PATHS + 1000)
    res = solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.4, 0.4, cfg)
    x_t = simulate(_sub_model(bsde_two_currency_model, contract), cfg.grid, cfg.n_paths, cfg.seed).fx("USD")[:, -1]
    pairs = 0.5 * (x_t[0::2] + x_t[1::2])
    expected = np.std(pairs, ddof=1) / math.sqrt(cfg.n_paths // 2) / np.mean(pairs)
    assert res.v0_std_error / res.v0 == pytest.approx(expected, rel=1e-12)


def test_non_finite_v0_raises_naming_the_estimate(bsde_two_currency_model):
    # one step: slice 0 is a plain mean, so the overflowing foreign flow reaches v0 unregressed
    contract = Contract("USD", ((1.0, -1e308),))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="non-finite v0"):
        solve_endogenous(bsde_two_currency_model, contract, "EUR", 0.0, 0.0, _cfg(n_steps=1, n_paths=2000))


def _wider_models(model):
    """``model`` with an EUR asset, and with a GBP currency and its FX pair; each correlated with fx:USD."""
    base = model.correlation.matrix  # driver order EQ, FEQ, fx:USD

    def bordered(row):
        return np.block([[base, np.array(row)[:, None]], [np.array([*row, 1.0])]])

    extra_asset = AssetSpec("EQ3", "EUR", 30.0, 0.35, RateCurve.flat(0.0), RateCurve.flat(0.01))
    gbp = {"GBP": curveset(0.04, 0.03, 0.03, cash_post=0.02)}
    currencies = [(c.name, c.domestic) for c in model.currencies]
    return [
        build_model(
            currencies, model.rates, [*model.assets, extra_asset], model.fx,
            CorrelationMatrix([*model.driver_labels, "EQ3"], bordered([0.1, 0.0, 0.25])),
        ),
        build_model(
            [*currencies, ("GBP", False)], {**model.rates, **gbp}, model.assets, [*model.fx, FxSpec("GBP", 1.15, 0.12)],
            CorrelationMatrix([*model.driver_labels, "fx:GBP"], bordered([0.0, 0.2, 0.5])),
        ),
    ]


@pytest.mark.parametrize("native", ["USD", "EUR"], ids=["foreign", "domestic"])
def test_drivers_a_trade_does_not_read_leave_its_solve_byte_identical(bsde_two_currency_model, native):
    # the solver simulates the flows' FX driver alone, so an unread driver, even a correlated one, moves no bit
    contract = Contract(native, ((0.5, 2.0), (1.0, -1.0)))
    grid = TimeGrid.regular(1.0, 4, include=contract.flow_times)
    cfg = BsdeConfig(grid=grid, n_paths=2 * CHUNK_PATHS + 100, seed=5)
    models = [bsde_two_currency_model, *_wider_models(bsde_two_currency_model)]
    first, *others = [solve_endogenous(model, contract, "USD", 0.3, 0.1, cfg) for model in models]
    assert (first.v0_std_error > 1e-12) == (native == "USD")  # a domestic trade has a rounding-level error bar
    for other in others:
        assert (other.v0, other.v0_std_error) == (first.v0, first.v0_std_error)
        assert other.surface.tobytes() == first.surface.tobytes()


@pytest.mark.parametrize("delta1, delta2", [(0.6, 0.15), (-0.3, 0.4)])
def test_a_domestic_trade_is_the_deterministic_recursion_and_draws_no_normals(
    bsde_two_currency_model, monkeypatch, delta1, delta2
):
    model = bsde_two_currency_model
    drawn = []

    def counting(stream, out):
        drawn.append(out.size)
        return normal_block(stream, out)

    monkeypatch.setattr("xccy.simulation.normal_block", counting)
    # a sign-switching trade: the value is negative before the receipt at 0.5 and positive after it
    contract = Contract("EUR", ((0.5, 5.0), (1.0, -3.0)))
    grid = TimeGrid.regular(1.0, 10, include=contract.flow_times)
    times = grid.times
    dr = model.curve("EUR", "unsecured").step_integrals(times)
    ds = (
        dr
        - model.curve("EUR", "collateral_lend").step_integrals(times)
        - cross_currency_basis_of(model, "USD", lambda curve: curve.step_integrals(times))
    )
    a = flow_amounts(grid, contract)
    v = np.zeros(len(times))
    below = []
    for j in range(grid.n_steps - 1, -1, -1):
        cont = v[j + 1] - a[j + 1]
        below.append(cont < 0)
        v[j] = cont / (1.0 + dr[j] - ds[j] * (1.0 + (delta1 if cont < 0 else delta2)))
    assert any(below) and not all(below)
    cfg = BsdeConfig(grid=grid, n_paths=2 * CHUNK_PATHS + 100, seed=3, n_workers=2)
    with monkeypatch.context() as no_paths:  # no chunk simulated, no chunk loop, no thread
        no_paths.setattr("xccy.bsde._simulate_log_chunk", lambda *a: pytest.fail("simulated a chunk"))
        no_paths.setattr("xccy.bsde.run_chunks", lambda *a: pytest.fail("ran the chunk loop"))
        res = solve_endogenous(model, contract, "USD", delta1, delta2, cfg)
    assert res.v0 == v[0]
    assert np.array_equal(res.surface, np.broadcast_to(v, res.surface.shape))
    assert res.v0_std_error == rounding_floor(grid.n_steps, max(np.abs(v).max(), 5.0))
    assert 0 < res.v0_std_error <= 1e-14 * abs(res.v0)
    assert sum(drawn) == 0
    # the spy sees the normals of the same trade paid in USD
    solve_endogenous(model, Contract("USD", contract.flows), "USD", delta1, delta2, _cfg(n_steps=10, n_paths=100))
    assert sum(drawn) > 0


def test_a_domestic_surface_is_a_read_only_view_of_one_row(bsde_two_currency_model):
    contract = Contract("EUR", ((0.5, 2.0), (1.0, -1.0)))
    grid = TimeGrid.regular(1.0, 8, include=contract.flow_times)
    res = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.3, 0.1, BsdeConfig(grid=grid, n_paths=5000))
    assert res.surface.shape == (5000, 9)
    assert res.surface.strides == (0, 8)
    assert not res.surface.flags.writeable
    assert np.all(res.surface[:, 0] == res.v0)
    assert res.surface[0].tobytes() == discrete_value(bsde_two_currency_model, contract, "USD", 0.3, 0.1, grid).tobytes()


def test_a_domestic_solve_allocates_nothing_per_path(bsde_two_currency_model):
    contract = Contract("EUR", ((0.5, 2.0), (1.0, -1.0)))
    grid = TimeGrid.regular(1.0, 50, include=contract.flow_times)
    cfg = BsdeConfig(grid=grid, n_paths=1_000_000, n_workers=2)
    res = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.3, 0.1, cfg)  # imports and caches
    assert res.surface.shape == (1_000_000, 51)
    peak = peak_traced_bytes(lambda: solve_endogenous(bsde_two_currency_model, contract, "USD", 0.3, 0.1, cfg))
    assert peak < 1 << 20, peak  # a stored surface alone would take 408 MB


def test_an_overflowing_domestic_value_raises_naming_v0(bsde_two_currency_model):
    # 1e308 at 1.0 discounts to a finite value at 0.5, and adding the second 1e308 there overflows;
    # a RuntimeWarning would fail the test before the error is raised
    contract = Contract("EUR", ((0.5, -1e308), (1.0, -1e308)))
    cfg = BsdeConfig(grid=TimeGrid.regular(1.0, 2), n_paths=2000)
    with pytest.raises(NumericalError, match="non-finite v0: inf"):
        solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 0.0, cfg)
    one = solve_endogenous(bsde_two_currency_model, Contract("EUR", ((1.0, -1e308),)), "USD", 0.0, 0.0, cfg)
    assert math.isfinite(one.v0) and math.isfinite(one.v0_std_error)


def test_a_foreign_trade_meets_its_discrete_closed_form():
    # a USD trade whose value changes sign at 0.5, haircuts of both signs, collateral in USD: the solver's v0
    # against x0 g_0 of the same recursion, within a z-bound fixed before running
    demo_model = validate_model(load_model(str(Path(__file__).resolve().parents[1] / "demos" / "config" / "model.json")))
    contract = Contract("USD", ((0.5, 1.5), (1.0, -1.0)))
    grid = TimeGrid.regular(1.0, 50, include=contract.flow_times)
    g = discrete_value(demo_model, contract, "USD", 0.3, -0.2, grid)
    assert g[0] < 0 < g[-2]
    oracle = demo_model.fx_spec("USD").x0 * g[0]
    for seed in range(6):
        res = solve_endogenous(demo_model, contract, "USD", 0.3, -0.2, BsdeConfig(grid=grid, n_paths=20_000, seed=seed))
        assert abs(res.v0 - oracle) <= 4.0 * res.v0_std_error, (seed, res.v0, oracle, res.v0_std_error)
