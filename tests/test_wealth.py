import math

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    Contract,
    FxSpec,
    Strategy,
    TimeGrid,
    discounted_flows,
    replay_wealth,
    simulate,
)
from xccy.curves import RateCurve
from xccy.errors import FlowOffGrid, GridMismatch
from xccy.wealth import fx_hedge_gain_increments, gain_increments


@pytest.fixture(scope="module")
def scen(two_currency_model):
    grid = TimeGrid.regular(1.0, 10)
    return simulate(two_currency_model, grid, 4000, seed=17)


def test_single_domestic_flow_all_rates_zero():
    rates = {"EUR": curveset(0.0, 0.0, 0.0)}
    model = build_model([("EUR", True)], rates)
    scen = simulate(model, TimeGrid.regular(1.0, 4), 16, seed=0)
    flows = discounted_flows(scen, Contract("EUR", ((1.0, -100.0),)))
    assert np.all(flows == -100.0)


def test_single_domestic_flow_deterministic_discount(scen):
    flows = discounted_flows(scen, Contract("EUR", ((1.0, 1.0),)))
    assert np.all(flows == pytest.approx(math.exp(-0.02), rel=1e-14))


def test_foreign_flow_mc_mean_matches_fx_forward(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=4)
    flows = discounted_flows(scen, Contract("USD", ((1.0, 1.0),)))
    se = flows.std(ddof=1) / math.sqrt(len(flows))
    expected = 0.9 * math.exp(-0.03)  # X_0 / B_usd(T)
    assert abs(flows.mean() - expected) <= 3 * se


def test_from_t_excludes_earlier_flows(scen):
    contract = Contract("EUR", ((0.5, 5.0), (1.0, 1.0)))
    late = discounted_flows(scen, contract, from_t=0.5)
    assert np.all(late == pytest.approx(math.exp(-0.02), rel=1e-14))


def test_flow_off_grid_raises(scen):
    with pytest.raises(FlowOffGrid):
        discounted_flows(scen, Contract("EUR", ((0.123456, 1.0),)))


def test_flow_off_grid_raises_in_replay(scen):
    with pytest.raises(FlowOffGrid):
        replay_wealth(scen, Strategy.empty(), Contract("EUR", ((0.123456, 1.0),)))


def test_constant_asset_has_zero_gain():
    rates = {"EUR": curveset(0.0, 0.0, 0.0)}
    assets = [AssetSpec("EQ", "EUR", 5.0, 1e-14, RateCurve.flat(0.0), RateCurve.flat(0.0))]
    model = build_model([("EUR", True)], rates, assets)
    scen0 = simulate(model, TimeGrid.regular(1.0, 5), 8, seed=0)
    assert np.max(np.abs(gain_increments(scen0, "EQ"))) < 1e-12


def test_domestic_gain_is_empirical_martingale(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=21)
    k_t = gain_increments(scen, "EQ").sum(axis=1)
    se = k_t.std(ddof=1) / math.sqrt(len(k_t))
    assert abs(k_t.mean()) <= 3 * se


def test_foreign_gain_net_of_fx_term_is_empirical_martingale(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=22)
    k_t = fx_hedge_gain_increments(scen, "FEQ").sum(axis=1)
    se = k_t.std(ddof=1) / math.sqrt(len(k_t))
    assert abs(k_t.mean()) <= 3 * se


def test_zero_strategy_compounds_at_domestic_rate(scen):
    wp = replay_wealth(scen, Strategy.empty(), Contract.zero("EUR"), x=1.0)
    for j, t in enumerate(scen.grid.times):
        assert wp.v[:, j] == pytest.approx(math.exp(0.02 * t), rel=1e-14)


def test_buy_and_hold_equals_gain_sum_when_domestic_rate_zero():
    rates = {
        "EUR": curveset(0.0, 0.0, 0.0),
        "USD": curveset(0.03, 0.022, 0.022),
    }
    assets = [
        AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("FEQ", "USD", 50.0, 0.25, RateCurve.flat(0.0), RateCurve.flat(0.028)),
    ]
    model = build_model(
        [("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.1)]
    )
    grid = TimeGrid.regular(1.0, 10)
    scen0 = simulate(model, grid, 800, seed=9)
    strat = Strategy.repo_constrained(scen0, {"EQ": np.ones(grid.n_steps)})
    wp = replay_wealth(scen0, strat, Contract.zero("EUR"), x=0.0)
    k_sum = gain_increments(scen0, "EQ").sum(axis=1)
    rel = np.max(np.abs(wp.v[:, -1] - k_sum) / np.maximum(1.0, np.abs(k_sum)))
    assert rel < 1e-12


def _random_strategy(rng, n_paths, n_steps, per_path=False):
    shape = (n_paths, n_steps) if per_path else (n_steps,)
    return Strategy(
        xi={"EQ": rng.normal(size=shape), "FEQ": rng.normal(size=shape)},
        psi_repo={"EQ": rng.normal(size=shape), "FEQ": rng.normal(size=shape)},
        psi_cash={"USD": rng.normal(size=shape)},
    )


def _funded_leg(scen, contract):
    """Independent accumulation of the unhedged funded position in the contract."""
    be = scen.account("EUR")
    fx = scen.fx(contract.native_currency)
    acc = contract.initial_flow * fx[:, 0] / be[0]
    out = [acc * be[0]]
    for j in range(1, len(scen.grid.times)):
        for t, a in contract.flows:
            if abs(t - scen.grid.times[j]) < 1e-12:
                acc = acc + a * fx[:, j] / be[j]
        out.append(acc * be[j])
    return np.array(out).T


def test_netted_wealth_identity_path_by_path(scen):
    rng = np.random.default_rng(100)
    contract = Contract("USD", ((0.3, 2.0), (0.7, -1.5), (1.0, -1.0)), initial_flow=0.8)
    strat = _random_strategy(rng, scen.n_paths, scen.grid.n_steps, per_path=True)
    wp = replay_wealth(scen, strat, contract, x=1.3)
    rhs = wp.v - _funded_leg(scen, contract)
    rel = np.max(np.abs(wp.v_net - rhs) / np.maximum(1.0, np.abs(rhs)))
    assert rel < 1e-12


def test_lemma_identity_on_100_random_draws(scen):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n_flows = rng.integers(1, 4)
        dates = rng.choice(scen.grid.times[1:], size=n_flows, replace=False)
        amounts = rng.normal(size=n_flows) * 3
        contract = Contract(
            rng.choice(["EUR", "USD"]),
            tuple(zip(map(float, dates), map(float, amounts))),
            initial_flow=float(rng.normal()),
        )
        strat = _random_strategy(rng, scen.n_paths, scen.grid.n_steps)
        x = float(rng.normal())
        wp = replay_wealth(scen, strat, contract, x=x)
        rhs = wp.v - _funded_leg(scen, contract)
        rel = np.max(np.abs(wp.v_net - rhs) / np.maximum(1.0, np.abs(rhs)))
        worst = max(worst, rel)
    assert worst < 1e-10


def test_replay_scaling_linearity(scen):
    rng = np.random.default_rng(31)
    contract = Contract("USD", ((0.5, 1.0), (1.0, -2.0)), initial_flow=0.4)
    strat = _random_strategy(rng, scen.n_paths, scen.grid.n_steps)
    doubled = Strategy(
        xi={k: 2 * v for k, v in strat.xi.items()},
        psi_repo={k: 2 * v for k, v in strat.psi_repo.items()},
        psi_cash={k: 2 * v for k, v in strat.psi_cash.items()},
    )
    wp1 = replay_wealth(scen, strat, contract, x=0.7)
    wp2 = replay_wealth(scen, doubled, contract.scaled(2.0), x=1.4)
    assert np.max(np.abs(wp2.v - 2 * wp1.v)) < 1e-10


def test_discounted_netted_wealth_is_empirical_martingale(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=13)
    n_steps = scen.grid.n_steps
    strat = Strategy.repo_constrained(
        scen,
        {"EQ": np.full(n_steps, 0.5), "FEQ": np.full(n_steps, 0.2)},
        psi_cash={"USD": np.full(n_steps, 0.3)},
    )
    wp = replay_wealth(scen, strat, Contract.zero("EUR"), x=1.0)
    v_tilde = wp.v_net[:, -1] / scen.account("EUR")[-1]
    se = v_tilde.std(ddof=1) / math.sqrt(len(v_tilde))
    assert abs(v_tilde.mean() - 1.0) <= 3 * se


def test_strategy_shape_mismatch_raises(scen):
    bad = Strategy(xi={"EQ": np.ones(3)}, psi_repo={}, psi_cash={})
    with pytest.raises(GridMismatch):
        replay_wealth(scen, bad, Contract.zero("EUR"))


def test_strategy_from_dict_round_trip(scen):
    doc = {
        "xi": {"EQ": [0.5] * scen.grid.n_steps},
        "psi_repo": {"EQ": [-0.1] * scen.grid.n_steps},
        "psi_cash": {"USD": [1.0] * scen.grid.n_steps},
    }
    strat = Strategy.from_dict(doc)
    wp = replay_wealth(scen, strat, Contract.zero("EUR"), x=0.0)
    assert wp.v.shape == (scen.n_paths, len(scen.grid.times))


def test_wealth_path_csv_export(scen, tmp_path):
    wp = replay_wealth(scen, Strategy.empty(), Contract.zero("EUR"), x=1.0)
    out = tmp_path / "wealth.csv"
    wp.to_csv(scen.grid, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,time,v,v_portfolio,v_adjustment,v_net"
    assert len(lines) == 1 + scen.n_paths * len(scen.grid.times)
