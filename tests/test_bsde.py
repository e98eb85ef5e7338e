import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    BsdeConfig,
    Contract,
    FxSpec,
    RateCurve,
    TimeGrid,
    cross_currency_basis,
    price_fully_collateralized,
    simulate,
    solve_endogenous,
)
from xccy.bsde import COND_LIMIT, _fill_design, _monomial_products, _regress, _slice_denominator
from xccy.errors import AsymmetricCollateralRates, ConfigError, NumericalError, SingularRegression
from xccy.model import cross_currency_basis_of
from xccy.simulation import CHUNK_PATHS, _simulate_log_chunk, _step_coefficients, sample_mean
from xccy.wealth import flow_nodes


def _cfg(n_steps=25, n_paths=20_000, seed=11, **kw):
    return BsdeConfig(grid=TimeGrid.regular(1.0, n_steps), n_paths=n_paths, seed=seed, **kw)


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
    y = simulate(bsde_two_currency_model, cfg.grid, cfg.n_paths, cfg.seed).fx("USD")[:, 1]
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


def test_non_finite_design_is_a_singular_regression():
    # the condition number's SVD fails on a NaN before the solve is reached
    design = np.ones((2, 8))
    design[1] = np.arange(8.0)
    design[1, 3] = math.nan
    with pytest.raises(SingularRegression):
        _regress(design, np.arange(8.0))


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


def test_degenerate_states_fall_back_to_ridge():
    # sigma ~ 0 makes every regression column constant; the ridge fallback
    # must keep the solve alive and still discount correctly
    rates = {"EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02)}
    from xccy import AssetSpec
    from xccy.curves import RateCurve

    assets = [AssetSpec("EQ", "EUR", 100.0, 1e-9, RateCurve.flat(0.0), RateCurve.flat(0.02))]
    model = build_model([("EUR", True)], rates, assets)
    contract = Contract("EUR", ((1.0, -1.0),))
    res = solve_endogenous(model, contract, "EUR", 0.0, 0.0, _cfg(n_paths=500))
    assert res.v0 == pytest.approx(math.exp(-0.015), rel=2e-3)


def test_multi_flow_contract_matches_closed_form(bsde_two_currency_model):
    contract = Contract("EUR", ((0.5, 2.0), (1.0, -3.0)))
    grid = TimeGrid.regular(1.0, 25, include=contract.flow_times)
    cfg = BsdeConfig(grid=grid, n_paths=20_000, seed=11)
    res = solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 0.0, cfg)
    closed = price_fully_collateralized(bsde_two_currency_model, contract, "USD")
    assert abs(res.v0 - closed) < 2e-3 * abs(closed) + 1e-6


def _reference_basis(states: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree in the columns of ``states``, plus 1."""
    n, d = states.shape
    cols = [np.ones(n)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), deg):
            col = np.ones(n)
            for i in combo:
                col = col * states[:, i]
            cols.append(col)
    return np.column_stack(cols)


def _design(states: np.ndarray, degree: int) -> np.ndarray:
    products = _monomial_products(states.shape[0], degree)
    design = np.ones((1 + len(products), states.shape[1]))
    _fill_design(design, states, products)
    return design


@pytest.mark.parametrize("n_drivers", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_in_place_design_matches_column_stack_reference(degree, n_drivers):
    rng = np.random.default_rng(degree * 10 + n_drivers)
    n = 5000
    states = 0.2 * rng.standard_normal((n_drivers, n))  # log-states
    y = np.exp(states).sum(axis=0) + 0.1 * rng.standard_normal(n)
    basis = _reference_basis(states.T, degree)
    design = _design(states, degree)
    assert np.array_equal(design, basis.T)
    reference = basis @ np.linalg.solve(basis.T @ basis, basis.T @ y)
    np.testing.assert_allclose(_regress(design, y) @ design, reference, rtol=1e-12)


def test_collinear_design_takes_ridge_fallback():
    rng = np.random.default_rng(3)
    row = 0.2 * rng.standard_normal(4000)
    states = np.stack([row, row])  # a duplicated state row
    y = np.exp(row) + 0.1 * rng.standard_normal(4000)
    design = _design(states, 2)
    assert np.linalg.cond(design @ design.T) > COND_LIMIT
    fitted = _regress(design, y) @ design
    basis = design.T
    least_squares = basis @ np.linalg.lstsq(basis, y, rcond=None)[0]
    np.testing.assert_allclose(fitted, least_squares, rtol=1e-6)


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


def test_one_path_has_no_error_bar(bsde_two_currency_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the path count was checked")

    monkeypatch.setattr("xccy.bsde._simulate_log_chunk", refuse)
    with pytest.raises(ConfigError, match="at least 4 paths"):
        solve_endogenous(bsde_two_currency_model, Contract("EUR", ((1.0, -1.0),)), "USD", 0.0, 0.0, _cfg(n_paths=1))


def _stored_path_solver(model, contract, k3, delta1, delta2, cfg):
    """Reference: the solver that held every path and fitted every slice on all of them.

    Its states are the log-paths of the simulation's log-path kernel, chunk
    by chunk, and its flows are converted at the levels :func:`simulate`
    stores. Returns its surface (n_paths, n_times), whose row 0 is the
    regressed slice-0 value, and the pathwise values u.
    """
    grid, n_paths, times = cfg.grid, cfg.n_paths, cfg.grid.times
    flows = np.zeros(grid.n_steps + 1)
    np.add.at(flows, flow_nodes(grid, contract), [a for _, a in contract.flows])
    scenario = simulate(model, grid, n_paths, cfg.seed, n_workers=cfg.n_workers)
    drift, vol, _ = _step_coefficients(model, grid, {})
    logs = np.empty_like(scenario.paths)
    for lo in range(0, n_paths, CHUNK_PATHS):
        _simulate_log_chunk(logs[:, :, lo : lo + CHUNK_PATHS], cfg.seed, drift, vol, lo // CHUNK_PATHS)
    r_e = model.curve(model.domestic, "unsecured")
    r_int = r_e.step_integrals(times)
    spread_int = (
        r_int
        - model.curve(model.domestic, "collateral_lend").step_integrals(times)
        - cross_currency_basis_of(model, k3, lambda curve: curve.step_integrals(times))
    )
    fx_k2 = scenario.fx(contract.native_currency)
    n_drivers = len(model.driver_labels)
    products = _monomial_products(n_drivers, cfg.degree)
    design = np.ones((1 + len(products), n_paths))
    surface = np.zeros((grid.n_steps + 1, n_paths))
    v = surface[grid.n_steps]
    u = np.zeros(n_paths)
    for j in range(grid.n_steps - 1, -1, -1):
        paid = flows[j + 1] * fx_k2[:, j + 1]
        y = v - paid
        if j == 0 or not n_drivers:
            cont = np.full(n_paths, float(np.mean(y)))
        else:
            _fill_design(design, logs[:, j], products)
            cont = _regress(design, y) @ design
        den = _slice_denominator(cont, r_int[j], spread_int[j], delta1, delta2)
        v = np.divide(cont, den, out=surface[j])
        u -= paid
        u /= den
    return surface.T, u


STREAMED_CASES = [
    ("USD", "EUR", 0.5, 0.5, 12, 5000),  # foreign flows: a path-dependent value
    ("EUR", "USD", 0.3, 0.1, 8, CHUNK_PATHS),  # one full chunk
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

    def recording(block, seed, drift, vol, chunk):
        requests.append((chunk, block.shape[2]))
        return _simulate_log_chunk(block, seed, drift, vol, chunk)

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
    x_t = simulate(bsde_two_currency_model, cfg.grid, cfg.n_paths, cfg.seed).fx("USD")[:, -1]
    pairs = 0.5 * (x_t[0::2] + x_t[1::2])
    expected = np.std(pairs, ddof=1) / math.sqrt(cfg.n_paths // 2) / np.mean(pairs)
    assert res.v0_std_error / res.v0 == pytest.approx(expected, rel=1e-12)
