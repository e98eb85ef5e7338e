import math

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    BsdeConfig,
    Contract,
    FxSpec,
    Strategy,
    TimeGrid,
    discounted_flows,
    replay_wealth,
    simulate,
    solve_endogenous,
)
from xccy.collateral import CollateralPath, CollateralSpec, adjustment_increments, collateral_value_adjustment
from xccy.curves import RateCurve
from xccy.errors import ConfigError, FlowOffGrid, GridMismatch, MissingCollateralRates, UnknownCurrency
from xccy.simulation import sample_mean
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
    mean, se = sample_mean(flows)
    expected = 0.9 * math.exp(-0.03)  # X_0 / B_usd(T)
    assert abs(mean - expected) <= 3 * se


def test_flow_off_grid_raises(scen):
    with pytest.raises(FlowOffGrid):
        discounted_flows(scen, Contract("EUR", ((0.123456, 1.0),)))


def test_flow_off_grid_raises_in_replay(scen):
    with pytest.raises(FlowOffGrid):
        replay_wealth(scen, Strategy.empty(), Contract("EUR", ((0.123456, 1.0),)))


def test_flow_snapped_onto_node_zero_raises_in_every_consumer(bsde_two_currency_model):
    # 5e-10 > 0 is a valid flow date, but it snaps onto node 0, which belongs to Contract.initial_flow
    grid = TimeGrid([0.0, 0.5, 1.0])
    contract = Contract("EUR", ((5e-10, 1.0), (1.0, -1.0)))
    scen = simulate(bsde_two_currency_model, grid, 10, seed=0)
    with pytest.raises(FlowOffGrid):
        discounted_flows(scen, contract)
    with pytest.raises(FlowOffGrid):
        replay_wealth(scen, Strategy.empty(), contract)
    with pytest.raises(FlowOffGrid):
        solve_endogenous(bsde_two_currency_model, contract, "USD", 0.0, 0.0, BsdeConfig(grid, 10))


def test_constant_asset_has_zero_gain():
    rates = {"EUR": curveset(0.0, 0.0, 0.0)}
    assets = [AssetSpec("EQ", "EUR", 5.0, 1e-14, RateCurve.flat(0.0), RateCurve.flat(0.0))]
    model = build_model([("EUR", True)], rates, assets)
    scen0 = simulate(model, TimeGrid.regular(1.0, 5), 8, seed=0)
    assert np.max(np.abs(gain_increments(scen0, "EQ"))) < 1e-12


def test_domestic_gain_is_empirical_martingale(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=21)
    mean, se = sample_mean(gain_increments(scen, "EQ").sum(axis=1))
    assert abs(mean) <= 3 * se


def test_foreign_gain_net_of_fx_term_is_empirical_martingale(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=22)
    mean, se = sample_mean(fx_hedge_gain_increments(scen, "FEQ").sum(axis=1))
    assert abs(mean) <= 3 * se


def _four_term_fx_hedge_increments(scenario, label):
    """The four-term gain increments S_j dX + X_j dS + dS dX + X_j S_j (div - repo), and those less S_j dX."""
    a = scenario.model.asset(label)
    s, x = scenario.asset(label), scenario.fx(a.currency)
    times = scenario.grid.times
    repo_int, div_int = a.repo_rate.step_integrals(times), a.dividend_yield.step_integrals(times)
    ds, dx = np.diff(s, axis=1), np.diff(x, axis=1)
    s_l, x_l = s[:, :-1], x[:, :-1]
    gain = s_l * dx + x_l * ds + ds * dx + x_l * s_l * (div_int - repo_int)
    return gain, gain - s_l * dx


@pytest.mark.parametrize("label", ["EQ", "FEQ"])
def test_three_term_increments_match_the_four_term_sum(scen, label):
    gain, hedged = _four_term_fx_hedge_increments(scen, label)
    assert np.max(np.abs(fx_hedge_gain_increments(scen, label) - hedged)) <= 1e-12 * np.max(np.abs(hedged))
    assert np.max(np.abs(gain_increments(scen, label) - gain)) <= 1e-12 * np.max(np.abs(gain))


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


def _reference_replay(scen, strategy, contract, x, collateral=None, spec=None):
    """Step-by-step forward accumulation of the wealth identity: V_{j+1} = V_j B_{j+1} / B_j + dG_j."""
    n_paths, n_steps = scen.n_paths, scen.grid.n_steps
    b_e = scen.account("EUR")

    def per_path(arr):
        arr = np.asarray(arr, dtype=float)
        return arr[None, :] if arr.ndim == 1 else arr

    xi = {k: per_path(v) for k, v in strategy.xi.items()}
    psi_repo = {k: per_path(v) for k, v in strategy.psi_repo.items()}
    psi_cash = {k: per_path(v) for k, v in strategy.psi_cash.items()}
    fx_k2 = scen.fx(contract.native_currency)
    coll_inc = np.zeros((n_paths, n_steps))
    v_adj = np.zeros((n_paths, n_steps + 1))
    if collateral is not None:
        coll_inc = adjustment_increments(scen, collateral, spec)
        if spec.form == "risky":
            s_coll = scen.asset(spec.posted_asset)
            units = collateral.posted[:, :-1] / s_coll[:, :-1]
            coll_inc = coll_inc + units * (
                gain_increments(scen, spec.posted_asset)
                - s_coll[:, :-1] * np.diff(scen.fx(spec.currency), axis=1)
            )
        v_adj = collateral_value_adjustment(scen, collateral, spec)

    v = np.empty((n_paths, n_steps + 1))
    v[:, 0] = x + contract.initial_flow * fx_k2[:, 0]
    zero = np.zeros((1, n_steps))
    for j in range(n_steps):
        dv = v[:, j] * (b_e[j + 1] / b_e[j] - 1.0)
        for label in sorted(set(xi) | set(psi_repo)):
            u_xi = xi.get(label, zero)[:, j]
            u_psi = psi_repo.get(label, zero)[:, j]
            s = scen.asset(label)
            b_repo = scen.repo_account(label)
            x_cur = scen.fx(scen.model.asset(label).currency)
            if label in xi:
                dv = dv + u_xi * gain_increments(scen, label)[:, j]
            zeta = u_psi * b_repo[j] + u_xi * s[:, j]
            ratio = b_repo / b_e
            dv = dv + (b_e[j] / b_repo[j]) * zeta * x_cur[:, j] * (ratio[j + 1] - ratio[j])
            dv = dv + b_repo[j] * u_psi * (x_cur[:, j + 1] - x_cur[:, j])
        for cur, units in psi_cash.items():
            acc = scen.fx(cur) * scen.account(cur) / b_e
            dv = dv + b_e[j] * units[:, j] * (acc[:, j + 1] - acc[:, j])
        for t, a in contract.flows:
            if abs(t - scen.grid.times[j + 1]) < 1e-12:
                dv = dv + a * fx_k2[:, j + 1]
        v[:, j + 1] = v[:, j] + dv + coll_inc[:, j]
    v_net = v - _funded_leg(scen, contract)
    return {"v": v, "v_portfolio": v - v_adj, "v_adjustment": v_adj, "v_net": v_net}


REPLAY_COLLATERAL = [None] + [
    (form, convention) for form in ("cash", "risky") for convention in ("segregation", "rehypothecation")
]


@pytest.mark.parametrize("coll", REPLAY_COLLATERAL, ids=lambda c: "none" if c is None else "/".join(c))
def test_replay_matches_stepwise_reference(scen, coll):
    rng = np.random.default_rng(5)
    # two flows share the node t = 0.5
    contract = Contract("USD", ((0.5, 1.0), (0.5, -0.4), (0.8, 0.7), (1.0, -2.0)), initial_flow=0.3)
    strat = _random_strategy(rng, scen.n_paths, scen.grid.n_steps, per_path=True)
    path = spec = None
    if coll is not None:
        form, convention = coll
        kw = {"posted_asset": "FEQ", "received_asset": "FEQ"} if form == "risky" else {}
        spec = CollateralSpec(currency="USD", form=form, convention=convention, **kw)
        t = scen.grid.times
        path = CollateralPath(np.sin(2 * np.pi * t)[None, :] * (1.0 + 0.2 * np.log(scen.fx("USD"))), "USD")
    wp = replay_wealth(scen, strat, contract, x=1.1, collateral=path, collateral_spec=spec)
    ref = _reference_replay(scen, strat, contract, 1.1, path, spec)
    for name, expected in ref.items():
        got = getattr(wp, name)
        rel = np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))
        assert rel < 1e-12, name


def test_collateral_path_without_spec_raises(scen):
    path = CollateralPath(np.ones((scen.n_paths, len(scen.grid.times))), "USD")
    with pytest.raises(MissingCollateralRates):
        replay_wealth(scen, Strategy.empty(), Contract.zero("EUR"), collateral=path)


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
    wp2 = replay_wealth(scen, doubled, Contract("USD", ((0.5, 2.0), (1.0, -4.0)), initial_flow=0.8), x=1.4)
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
    mean, se = sample_mean(wp.v_net[:, -1] / scen.account("EUR")[-1])
    assert abs(mean - 1.0) <= 3 * se


def test_strategy_shape_mismatch_raises(scen):
    bad = Strategy(xi={"EQ": np.ones(3)}, psi_repo={}, psi_cash={})
    with pytest.raises(GridMismatch):
        replay_wealth(scen, bad, Contract.zero("EUR"))


@pytest.mark.parametrize(
    "strategy, error",
    [
        (Strategy({"NOPE": np.ones(10)}, {}, {}), ConfigError),
        (Strategy({}, {}, {"GBP": np.ones(10)}), UnknownCurrency),
    ],
    ids=["asset", "currency"],
)
def test_strategy_label_naming_nothing_raises(scen, strategy, error):
    with pytest.raises(error):
        replay_wealth(scen, strategy, Contract.zero("EUR"))


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
