"""End-to-end acceptance suite.

Each test prints one PASS line with its headline numbers (run pytest with -s
to see them); a failure of any assertion is the corresponding FAIL.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    BsdeConfig,
    CollateralPath,
    CollateralSpec,
    Contract,
    FxSpec,
    Strategy,
    TimeGrid,
    discounted_flows,
    price_exogenous,
    price_fully_collateralized,
    reduction_suite,
    replay_wealth,
    run_martingale_suite,
    simulate,
    solve_endogenous,
)
from xccy.cli import run as cli_run
from xccy.curves import RateCurve
from xccy.diagnostics import martingale_test


def test_acceptance_1_martingale_suite(three_currency_model):
    start = time.time()
    scen = simulate(three_currency_model, TimeGrid.regular(1.0, 4), 100_000, seed=20240)
    reports = run_martingale_suite(scen, checkpoints=4, threshold=3.0)
    worst = max(r.max_abs_z for r in reports)
    assert all(r.passed for r in reports), {r.process_id: r.max_abs_z for r in reports}

    # negative control: +2% drift on one FX and one asset must fail loudly
    bad = simulate(
        three_currency_model,
        TimeGrid.regular(1.0, 4),
        100_000,
        seed=20240,
        drift_shift={"fx:USD": 0.02, "EQ1": 0.02},
    )
    z_fx = martingale_test(bad, "fx:USD").max_abs_z
    z_asset = martingale_test(bad, "asset:EQ1").max_abs_z
    assert z_fx > 10 and z_asset > 10
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"\nACCEPTANCE 1 PASS: martingale suite, 6 processes x 4 checkpoints, "
        f"max |z| = {worst:.2f} <= 3; negative control |z| = {min(z_fx, z_asset):.1f} > 10; "
        f"{elapsed:.1f}s"
    )


@pytest.mark.parametrize(
    "case,k2,k3",
    [
        ("domestic flows, domestic collateral", "EUR", "EUR"),
        ("domestic flows, foreign collateral", "EUR", "USD"),
        ("foreign flows, domestic collateral", "USD", "EUR"),
    ],
)
def test_acceptance_2_perfect_collateralization_oracle(bsde_two_currency_model, case, k2, k3):
    start = time.time()
    model = bsde_two_currency_model
    contract = Contract(k2, ((1.0, -1.0),))
    cfg = BsdeConfig(grid=TimeGrid.regular(1.0, 50), n_paths=100_000, seed=99)
    res = solve_endogenous(model, contract, k3, 0.0, 0.0, cfg)
    closed = price_fully_collateralized(model, contract, k3)
    rel = abs(res.v0 / closed - 1.0)
    elapsed = time.time() - start
    assert rel < 2e-3, (res.v0, closed)
    assert elapsed < 120
    print(
        f"\nACCEPTANCE 2 PASS ({case}): solver {res.v0:.6f} vs closed form {closed:.6f}, "
        f"rel err {rel:.2e} < 2e-3; {elapsed:.1f}s"
    )


def _convention_models():
    # segregated reinvestment at the domestic unsecured rate; equal posting roles
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02,
                        reinvest_seg=0.02, reinvest_rehyp=0.01),
        "USD": curveset(0.03, 0.022, 0.021, cash_post=0.026, coll_post=0.026,
                        reinvest_seg=0.02, reinvest_rehyp=0.02),
    }
    assets = [
        AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("CUSD", "USD", 10.0, 0.05, RateCurve.flat(0.0), RateCurve.flat(0.026)),
    ]
    from xccy.model import CorrelationMatrix

    corr = CorrelationMatrix(
        ["EQ", "CUSD", "fx:USD"], [[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]]
    )
    return build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.1)], corr)


def test_acceptance_3_convention_equivalences():
    model = _convention_models()
    scen = simulate(model, TimeGrid.regular(1.0, 25), 20_000, seed=55)
    contract = Contract("EUR", ((1.0, -1.0),))
    # sign-varying state-dependent collateral
    c = np.sin(4.0 * np.log(scen.fx("USD"))) * np.sin(
        2 * np.pi * scen.grid.times
    )[None, :] * 2.0
    coll = CollateralPath(c, "USD")

    def price(form, convention):
        kw = {"posted_asset": "CUSD", "received_asset": "CUSD"} if form == "risky" else {}
        spec = CollateralSpec(currency="USD", form=form, convention=convention, **kw)
        return price_exogenous(scen, contract, coll, spec).price

    p_cs, p_cr = price("cash", "segregation"), price("cash", "rehypothecation")
    rel_conv = abs(p_cs - p_cr) / max(1.0, abs(p_cr))
    assert rel_conv < 1e-12, (p_cs, p_cr)

    p_rs = price("risky", "segregation")
    rel_form = abs(p_rs - p_cs) / max(1.0, abs(p_cs))
    assert rel_form < 1e-12, (p_rs, p_cs)
    print(
        f"\nACCEPTANCE 3 PASS: seg vs rehyp rel diff {rel_conv:.2e}, "
        f"risky vs cash rel diff {rel_form:.2e}, both <= 1e-12"
    )


def test_acceptance_4_wealth_replay_identity(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 10), 2000, seed=17)
    grid = scen.grid
    be = scen.account("EUR")
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n_flows = int(rng.integers(1, 4))
        dates = rng.choice(grid.times[1:], size=n_flows, replace=False)
        amounts = 3.0 * rng.normal(size=n_flows)
        k2 = str(rng.choice(["EUR", "USD"]))
        contract = Contract(
            k2, tuple(zip(map(float, dates), map(float, amounts))), initial_flow=float(rng.normal())
        )
        strat = Strategy(
            xi={"EQ": rng.normal(size=grid.n_steps), "FEQ": rng.normal(size=(2000, grid.n_steps))},
            psi_repo={"EQ": rng.normal(size=grid.n_steps), "FEQ": rng.normal(size=(2000, grid.n_steps))},
            psi_cash={"USD": rng.normal(size=grid.n_steps)},
        )
        wp = replay_wealth(scen, strat, contract, x=float(rng.normal()))
        # independent accumulation of the funded unhedged leg
        fx = scen.fx(k2)
        acc = contract.initial_flow * fx[:, 0] / be[0]
        rel = 0.0
        for j in range(len(grid.times)):
            if j > 0:
                for t, a in contract.flows:
                    if abs(t - grid.times[j]) < 1e-12:
                        acc = acc + a * fx[:, j] / be[j]
            rhs = wp.v[:, j] - acc * be[j]
            rel = max(
                rel,
                float(np.max(np.abs(wp.v_net[:, j] - rhs) / np.maximum(1.0, np.abs(rhs)))),
            )
        worst = max(worst, rel)
    assert worst < 1e-10
    print(f"\nACCEPTANCE 4 PASS: netted-wealth identity on 100 random draws, worst rel err {worst:.2e} < 1e-10")


def test_acceptance_5_deterministic_collateral_quadrature(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 50), 100_000, seed=77)
    level = 1.0
    const = CollateralPath(np.full((scen.n_paths, len(scen.grid.times)), level), "USD")
    spec = CollateralSpec(currency="USD", form="cash", convention="rehypothecation")
    report = price_exogenous(scen, Contract.zero("EUR"), const, spec)
    # 1e6-step quadrature of the deterministic reduction:
    # price = -c X0 int_0^T e^{-int r_k3} [(r_e - rc_b) - (r_e - r_k3)] du
    n = 10**6
    u = (np.arange(n) + 0.5) / n
    r_e, rc_b, r_k3, x0 = 0.02, 0.022, 0.03, 0.9
    oracle = -level * x0 * float(np.sum(np.exp(-r_k3 * u) * ((r_e - rc_b) - (r_e - r_k3)))) / n
    diff = abs(report.price - oracle)
    assert diff <= 3 * report.std_error, (report.price, oracle, report.std_error)
    print(
        f"\nACCEPTANCE 5 PASS: constant-collateral MC {report.price:.6e} vs quadrature "
        f"{oracle:.6e}, |diff| = {diff:.2e} <= 3 SE = {3 * report.std_error:.2e}"
    )


def test_acceptance_6_single_currency_reduction(single_currency_model):
    suite = reduction_suite(single_currency_model, n_paths=5000, seed=6)
    assert suite.passed, suite.checks
    scen = simulate(single_currency_model, TimeGrid.regular(1.0, 10), 5000, seed=61)
    contract = Contract("EUR", ((0.5, 1.0), (1.0, -2.0)))
    zero = CollateralPath(np.zeros((5000, 11)), "EUR")
    report = price_exogenous(scen, contract, zero, CollateralSpec(currency="EUR"))
    bare = -float(np.mean(discounted_flows(scen, contract)))
    assert report.price == bare
    assert report.leg_collateral == 0.0
    print(
        f"\nACCEPTANCE 6 PASS: single-currency price equals bare discounted-flow "
        f"expectation ({report.price:.6f}); all FX corrections identically zero"
    )


def test_acceptance_7_cli_determinism(tmp_path):
    model_doc = {
        "currencies": [
            {"name": "EUR", "domestic": True,
             "rates": {"unsecured": 0.02, "collateral_borrow": 0.015, "collateral_lend": 0.015,
                       "cash_post_funding": 0.02, "coll_post_funding": 0.02}},
            {"name": "USD",
             "rates": {"unsecured": 0.03, "collateral_borrow": 0.022, "collateral_lend": 0.022,
                       "cash_post_funding": 0.02, "coll_post_funding": 0.03}},
        ],
        "assets": [{"label": "EQ", "currency": "EUR", "s0": 100.0, "sigma": 0.2,
                    "dividend_yield": 0.01, "repo_rate": 0.015}],
        "fx": [{"currency": "USD", "x0": 0.9, "sigma": 0.1}],
        "correlation": {"labels": ["EQ", "fx:USD"], "matrix": [[1.0, 0.3], [0.3, 1.0]]},
    }
    trade_doc = {
        "trade_id": "ACC7",
        "contract": {"currency": "USD", "flows": [[1.0, -1.0]]},
        "collateral": {"currency": "USD", "form": "cash", "convention": "rehypothecation",
                       "mode": {"exogenous": {"functional": "mark_proxy", "params": {}}}},
    }
    model = tmp_path / "m.json"
    trade = tmp_path / "t.json"
    model.write_text(json.dumps(model_doc))
    trade.write_text(json.dumps(trade_doc))
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / tag
        rc = cli_run(
            ["price", "--model", str(model), "--trade", str(trade), "--paths", "20000",
             "--seed", "11", "--workers", str(workers), "--out", str(out)]
        )
        assert rc == 0
        outputs.append(((out / "report.json").read_bytes(), (out / "results.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]

    # the same determinism holds for the check subcommand
    chk = []
    for tag, workers in (("ca", 1), ("cb", 8)):
        out = tmp_path / tag
        rc = cli_run(["check", "--model", str(model), "--paths", "20000", "--steps", "4",
                      "--seed", "5", "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        chk.append((out / "report.json").read_bytes())
    assert chk[0] == chk[1]

    # and for bsde, over three simulation chunks (the last one ragged)
    sol = []
    for tag, workers in (("sa", 1), ("sb", 2)):
        out = tmp_path / tag
        rc = cli_run(["bsde", "--model", str(model), "--trade", str(trade), "--paths", str(2 * 8192 + 1000),
                      "--steps", "4", "--seed", "3", "--delta1", "0.1", "--delta2", "0.2",
                      "--workers", str(workers), "--out", str(out), "--dump-surface"])
        assert rc == 0
        sol.append(((out / "report.json").read_bytes(), (out / "surface.csv").read_bytes()))
    assert sol[0] == sol[1]
    print("\nACCEPTANCE 7 PASS: CLI outputs byte-identical across repeated runs and 1 vs 8 workers")
