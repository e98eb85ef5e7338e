import math

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    CollateralPath,
    CollateralSpec,
    Contract,
    FxSpec,
    Strategy,
    TimeGrid,
    adjustment_stream,
    build_exogenous_path,
    collateral_from_mark,
    margin_interest,
    price_exogenous,
    replay_wealth,
    simulate,
)
from xccy.collateral import adjustment_increments, carry_curves
from xccy.curves import RateCurve
from xccy.errors import ConfigError, MissingRates, NonPositiveFx
from xccy.model import cross_currency_basis_integral
from xccy.pricing import _collateral_leg_weights


@pytest.fixture(scope="module")
def scen(two_currency_model):
    return simulate(two_currency_model, TimeGrid.regular(1.0, 20), 2000, seed=42)


def _sign_varying_path(scen, currency="USD"):
    t = scen.grid.times
    base = np.sin(2 * np.pi * t)[None, :] * (1.0 + 0.2 * np.log(scen.fx(currency)))
    return CollateralPath(base, currency)


def test_mark_zero_gives_zero_collateral():
    spec = CollateralSpec(currency="USD", delta1=0.1, delta2=0.2)
    assert collateral_from_mark(0.0, spec, 2.0) == 0.0


def test_mark_positive_with_haircut():
    spec = CollateralSpec(currency="USD", delta1=0.1)
    assert collateral_from_mark(100.0, spec, 2.0) == pytest.approx(55.0, abs=1e-14)


def test_mark_negative_with_haircut():
    spec = CollateralSpec(currency="USD", delta2=0.04)
    assert collateral_from_mark(-50.0, spec, 1.0) == pytest.approx(-52.0, abs=1e-14)


def test_nonpositive_fx_rejected():
    spec = CollateralSpec(currency="USD")
    with pytest.raises(NonPositiveFx):
        collateral_from_mark(1.0, spec, 0.0)


def test_terminal_condition_enforced(scen):
    c = np.ones((scen.n_paths, len(scen.grid.times)))
    path = CollateralPath(c, "USD")
    assert np.all(path.c[:, -1] == 0.0)
    assert np.all(path.c[:, :-1] == 1.0)


def test_split_is_consistent(scen):
    path = _sign_varying_path(scen)
    assert np.allclose(path.c, path.received - path.posted)
    assert np.all(path.received * path.posted == 0.0)


def test_margin_interest_zero_for_zero_collateral(scen):
    spec = CollateralSpec(currency="USD")
    zero = CollateralPath(np.zeros((scen.n_paths, len(scen.grid.times))), "USD")
    assert np.all(margin_interest(scen, zero, spec) == 0.0)


def test_margin_interest_constant_posted_leg():
    # posted C- = 1, lend rate 0.01, domestic collateral (X = 1): F_T = 0.01
    rates = {"EUR": curveset(0.0, 0.02, 0.01, cash_post=0.0)}
    model = build_model([("EUR", True)], rates)
    scen0 = simulate(model, TimeGrid.regular(1.0, 10), 4, seed=0)
    spec = CollateralSpec(currency="EUR")
    posted = CollateralPath(np.full((4, 11), -1.0), "EUR")
    f_c = margin_interest(scen0, posted, spec)
    assert f_c[:, -1] == pytest.approx(0.01, rel=1e-12)


def test_margin_interest_decomposes_into_one_sided_integrals(scen):
    spec = CollateralSpec(currency="USD")
    path = _sign_varying_path(scen)
    both = margin_interest(scen, path, spec)
    pos_only = margin_interest(scen, CollateralPath(path.received.copy(), "USD"), spec)
    neg_only = margin_interest(scen, CollateralPath(-path.posted.copy(), "USD"), spec)
    assert np.max(np.abs(both - (pos_only + neg_only))) < 1e-12


def _spec(form, convention, **kw):
    if form == "risky":
        kw.setdefault("posted_asset", "FEQ")
        kw.setdefault("received_asset", "FEQ")
    return CollateralSpec(currency="USD", form=form, convention=convention, **kw)


ALL_CONVENTIONS = [
    ("cash", "segregation"),
    ("cash", "rehypothecation"),
    ("risky", "segregation"),
    ("risky", "rehypothecation"),
]


def _received_posted_legs(scen, coll, spec):
    """Reference: margin interest, carry increments and priced collateral leg in the
    received-minus-posted form, C+ times the received weight less C- times the posted one."""
    model, times = scen.model, scen.grid.times
    received, posted, c = coll.received[:, :-1], coll.posted[:, :-1], coll.c[:, :-1]
    borrow = model.curve(spec.currency, "collateral_borrow").step_integrals(times)
    lend = model.curve(spec.currency, "collateral_lend").step_integrals(times)
    recv_int, post_int = (curve.step_integrals(times) for curve in carry_curves(model, spec))
    x = scen.fx(spec.currency)
    interest = np.zeros((scen.n_paths, len(times)))
    np.cumsum(x[:, :-1] * (posted * lend - received * borrow), axis=1, out=interest[:, 1:])
    carry = x[:, :-1] * (received * (recv_int - borrow) - posted * (post_int - lend))
    increments = carry - c * np.diff(x, axis=1)
    w_recv, w_post, w_fx = _collateral_leg_weights(model, spec, times)
    priced = received * w_recv[None, :] - posted * w_post[None, :] - c * w_fx[None, :]
    leg = -float(np.mean((priced * x[:, :-1] / scen.account(model.domestic)[None, :-1]).sum(axis=1)))
    return interest, increments, leg


@pytest.mark.filterwarnings("ignore:collateral asset")
@pytest.mark.parametrize("form,convention", ALL_CONVENTIONS)
@pytest.mark.parametrize("k3", ["EUR", "USD"])
def test_signed_legs_match_the_received_posted_form_bit_for_bit(scen, k3, form, convention):
    # C times a weight picked by the sign of C is exact: x - 0 = x and 0 - y = -y
    asset = {"EUR": "EQ", "USD": "FEQ"}[k3]
    labels = {"posted_asset": asset, "received_asset": asset} if form == "risky" else {}
    spec = CollateralSpec(currency=k3, form=form, convention=convention, delta1=0.3, delta2=0.1, **labels)
    c = _sign_varying_path(scen, k3).c
    c[::3, 5], c[1::3, 7] = 0.0, -0.0
    coll = CollateralPath(c, k3)
    assert (coll.c[:, :-1] > 0).any() and (coll.c[:, :-1] < 0).any() and (coll.c[:, :-1] == 0).any()
    interest, increments, leg = _received_posted_legs(scen, coll, spec)
    assert np.array_equal(margin_interest(scen, coll, spec), interest)
    assert np.array_equal(adjustment_increments(scen, coll, spec), increments)
    report = price_exogenous(scen, Contract("EUR", ((1.0, -1.0),)), coll, spec)
    assert np.array_equal(report.leg_collateral, leg)
    mark, fx = 3.0 * coll.c, scen.fx(k3)
    split = ((1.0 + spec.delta1) * np.maximum(mark, 0.0) - (1.0 + spec.delta2) * np.maximum(-mark, 0.0)) / fx
    assert np.array_equal(collateral_from_mark(mark, spec, fx), split)


@pytest.mark.parametrize("form,convention", ALL_CONVENTIONS)
def test_zero_collateral_zero_stream(scen, form, convention):
    zero = CollateralPath(np.zeros((scen.n_paths, len(scen.grid.times))), "USD")
    stream = adjustment_stream(scen, zero, _spec(form, convention))
    assert np.all(stream == 0.0)


def _fx_terms(scen, path, spec):
    """The FX term of the replay's stream (-C dX) and of pricing (its leg weight)."""
    realized = -path.c[:, :-1] * np.diff(scen.fx(spec.currency), axis=1)
    weight = _collateral_leg_weights(scen.model, spec, scen.grid.times)[2]
    return realized, weight


@pytest.mark.parametrize("form,convention", ALL_CONVENTIONS)
def test_domestic_collateral_has_no_fx_term(two_currency_model, form, convention):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 10), 100, seed=3)
    kw = {"posted_asset": "EQ", "received_asset": "EQ"} if form == "risky" else {}
    spec = CollateralSpec(currency="EUR", form=form, convention=convention, **kw)
    path = CollateralPath(np.sin(np.linspace(0, 5, 11))[None, :] * np.ones((100, 11)), "EUR")
    realized, weight = _fx_terms(scen, path, spec)
    assert not realized.any() and not weight.any()


def test_foreign_collateral_has_an_fx_term(scen):
    # EUR and USD unsecured rates differ (0.02 vs 0.03), so the check above can fail
    path = _sign_varying_path(scen)
    realized, weight = _fx_terms(scen, path, CollateralSpec(currency="USD"))
    assert realized.any()
    assert np.all(weight < 0.0)


def test_cash_rehypothecation_reduces_to_fx_term_only():
    # carry spreads vanish when r_post = r_cl and r_dom = r_cb
    rates = {
        "EUR": curveset(0.02, 0.02, 0.015, cash_post=0.0),
        "USD": curveset(0.03, 0.02, 0.01, cash_post=0.01),
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    scen0 = simulate(model, TimeGrid.regular(1.0, 10), 200, seed=8)
    path = _sign_varying_path(scen0)
    spec = CollateralSpec(currency="USD", form="cash", convention="rehypothecation")
    inc = adjustment_increments(scen0, path, spec)
    fx_only = -path.c[:, :-1] * np.diff(scen0.fx("USD"), axis=1)
    assert np.max(np.abs(inc - fx_only)) < 1e-15


def test_segregation_equals_rehypothecation_when_reinvest_at_domestic_rate():
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02),
        # segregated reinvestment at the domestic unsecured rate 0.02
        "USD": curveset(0.03, 0.022, 0.021, cash_post=0.025, reinvest_seg=0.02),
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    scen0 = simulate(model, TimeGrid.regular(1.0, 10), 300, seed=5)
    path = _sign_varying_path(scen0)
    seg = adjustment_stream(scen0, path, CollateralSpec(currency="USD", form="cash", convention="segregation"))
    reh = adjustment_stream(
        scen0, path, CollateralSpec(currency="USD", form="cash", convention="rehypothecation")
    )
    assert np.array_equal(seg, reh)


def test_risky_equals_cash_when_posting_rates_coincide():
    # posting roles both at 0.025; rehyp reinvestment at the domestic rate so the
    # received legs of cash (domestic unsecured) and risky (k3 reinvestment) agree too
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.025, coll_post=0.025,
                        reinvest_seg=0.0, reinvest_rehyp=0.02),
    }
    assets = [
        AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("FEQ", "USD", 50.0, 0.25, RateCurve.flat(0.0), RateCurve.flat(0.028)),
    ]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.1)])
    scen0 = simulate(model, TimeGrid.regular(1.0, 10), 300, seed=6)
    path = _sign_varying_path(scen0)
    for convention in ("segregation", "rehypothecation"):
        cash = adjustment_stream(scen0, path, _spec("cash", convention))
        risky = adjustment_stream(scen0, path, _spec("risky", convention))
        assert np.array_equal(cash, risky)


def test_risky_equals_cash_on_posted_leg_regardless_of_received_rates(scen):
    # posted-only collateral: equality needs only the posting-funding roles to agree,
    # which the base model violates (0.025 vs 0.03), so force them equal here
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02, coll_post=0.02),
        "USD": curveset(0.03, 0.022, 0.022, cash_post=0.025, coll_post=0.025,
                        reinvest_seg=0.017, reinvest_rehyp=0.004),
    }
    assets = [
        AssetSpec("FEQ", "USD", 50.0, 0.25, RateCurve.flat(0.0), RateCurve.flat(0.028)),
    ]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.1)])
    scen0 = simulate(model, TimeGrid.regular(1.0, 10), 100, seed=2)
    posted = CollateralPath(-np.abs(_sign_varying_path(scen0).c), "USD")
    for convention in ("segregation", "rehypothecation"):
        cash = adjustment_stream(scen0, posted, _spec("cash", convention))
        risky = adjustment_stream(scen0, posted, _spec("risky", convention))
        assert np.array_equal(cash, risky)


def test_sign_flip_swaps_received_and_posted_legs(scen):
    spec = _spec("cash", "segregation")
    path = _sign_varying_path(scen)
    flipped = CollateralPath(-path.c.copy(), "USD")
    assert np.array_equal(path.received[:, :-1], flipped.posted[:, :-1])
    assert np.array_equal(path.posted[:, :-1], flipped.received[:, :-1])


def test_missing_rates_surfaces(two_currency_model):
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015),
        "USD": curveset(0.03, 0.022, 0.022),  # no cash_post_funding configured
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    scen0 = simulate(model, TimeGrid.regular(1.0, 4), 10, seed=0)
    path = CollateralPath(np.full((10, 5), -1.0), "USD")
    with pytest.raises(MissingRates):
        adjustment_stream(scen0, path, CollateralSpec(currency="USD"))


def test_exogenous_constant_functional(scen):
    spec = CollateralSpec(currency="USD", mode=("exogenous", "constant", {"level": 2.5}))
    path = build_exogenous_path(scen, spec)
    assert np.all(path.c[:, :-1] == 2.5)
    assert np.all(path.c[:, -1] == 0.0)


def test_exogenous_fraction_of_asset(scen):
    spec = CollateralSpec(
        currency="USD", mode=("exogenous", "fraction_of_asset", {"asset": "EQ", "fraction": 0.5})
    )
    path = build_exogenous_path(scen, spec)
    expected = 0.5 * scen.asset("EQ")[:, 5] / scen.fx("USD")[:, 5]
    assert np.allclose(path.c[:, 5], expected)


def test_exogenous_mark_proxy_tracks_remaining_flows(scen):
    contract = Contract("EUR", ((1.0, -1.0),))
    spec = CollateralSpec(currency="USD", mode=("exogenous", "mark_proxy", {}))
    path = build_exogenous_path(scen, spec, contract)
    # hedger pays at T, so the mark is negative and the hedger posts
    assert np.all(path.c[:, :-1] < 0.0)
    assert np.all(path.c[:, -1] == 0.0)


def test_unknown_functional_rejected():
    # rejected when the spec is built, before any path exists
    with pytest.raises(ConfigError, match="collateral.mode.exogenous.functional"):
        CollateralSpec(currency="USD", mode=("exogenous", "nope", {}))


def test_unknown_functional_parameter_rejected():
    # a misspelt key used to fall back to the default level of 0
    with pytest.raises(ConfigError, match=r"collateral\.mode\.exogenous\.params\.levl: .*known: \['level'\]"):
        CollateralSpec(currency="USD", mode=("exogenous", "constant", {"levl": 5.0}))


def test_bad_haircuts_rejected():
    with pytest.raises(ConfigError):
        CollateralSpec(currency="USD", delta1=-1.0)


@pytest.mark.parametrize(
    "terms", [{"form": "bond"}, {"convention": "netting"}], ids=["unknown form", "unknown convention"]
)
def test_unknown_collateral_terms_rejected(terms):
    (field,) = terms
    with pytest.raises(ConfigError, match=f"{field} must be one of"):
        CollateralSpec(currency="USD", **terms)


@pytest.mark.parametrize(
    "haircut",
    [{"delta1": math.inf}, {"delta2": math.nan}, {"delta2": -math.inf}],
    ids=["infinite delta1", "nan delta2", "minus infinite delta2"],
)
def test_haircut_must_be_finite_and_exceed_minus_one(haircut):
    # an infinite haircut used to pass and reach report.json as Infinity, which is not JSON
    (field,) = haircut
    with pytest.raises(ConfigError, match=f"collateral.{field} must be finite and exceed -1"):
        CollateralSpec(currency="USD", **haircut)


def test_risky_spec_requires_asset_labels():
    with pytest.raises(ConfigError):
        CollateralSpec(currency="USD", form="risky")


def _scalar_mark_proxy(scenario, spec, contract):
    """The mark-proxy collateral one (grid time, flow) pair at a time, from scalar integrals."""
    model, e, k2, k3 = scenario.model, scenario.model.domestic, contract.native_currency, spec.currency

    def factor(t0, t1):  # full-collateralization discount in k3 times the k2 FX forward
        rc_e = model.curve(e, "collateral_lend").integral(t0, t1)
        disc = math.exp(-(rc_e + cross_currency_basis_integral(model, k3, t0, t1)))
        if k2 == e:
            return disc
        r_e, r_k2 = model.curve(e, "unsecured").integral(t0, t1), model.curve(k2, "unsecured").integral(t0, t1)
        return disc * math.exp(r_e - r_k2)

    fx_k2 = scenario.fx(k2)
    mark = np.zeros((scenario.n_paths, len(scenario.grid.times)))
    for j, t in enumerate(scenario.grid.times):
        total = sum(amount * factor(t, t_i) for t_i, amount in contract.flows if t_i > t)
        mark[:, j] = total * fx_k2[:, j]
    c = collateral_from_mark(mark, spec, scenario.fx(k3))
    c[:, -1] = 0.0
    return c


@pytest.mark.parametrize("flow_times", [(0.5, 1.25, 2.0), (0.3, 1.1, 1.93)], ids=["on-grid", "off-grid"])
@pytest.mark.parametrize("k3", ["EUR", "USD"])
@pytest.mark.parametrize("k2", ["EUR", "USD"])
def test_mark_proxy_matches_scalar_reference(multi_knot_model, k2, k3, flow_times):
    scen = simulate(multi_knot_model, TimeGrid.regular(2.0, 16), 5, seed=8)
    contract = Contract(k2, tuple(zip(flow_times, (1.0, -2.0, 3.0))))
    spec = CollateralSpec(currency=k3, delta1=0.1, delta2=0.2, mode=("exogenous", "mark_proxy", {}))
    path = build_exogenous_path(scen, spec, contract)
    np.testing.assert_allclose(path.c, _scalar_mark_proxy(scen, spec, contract), rtol=1e-13, atol=0.0)


CONTRACT = Contract("EUR", ((1.0, -1.0),))
COLLATERAL_CONSUMERS = {
    "price_exogenous": lambda scen, path, spec: price_exogenous(scen, CONTRACT, path, spec),
    "margin_interest": margin_interest,
    "adjustment_increments": adjustment_increments,
    "replay_wealth": lambda scen, path, spec: replay_wealth(scen, Strategy.empty(), CONTRACT, 0.0, path, spec),
}


@pytest.mark.parametrize("consumer", list(COLLATERAL_CONSUMERS))
def test_collateral_path_in_another_currency_is_rejected(scen, consumer):
    path = CollateralPath(np.ones((scen.n_paths, len(scen.grid.times))), "EUR")
    with pytest.raises(ConfigError, match="currency"):
        COLLATERAL_CONSUMERS[consumer](scen, path, CollateralSpec(currency="USD"))


@pytest.mark.parametrize("consumer", list(COLLATERAL_CONSUMERS))
def test_collateral_path_off_the_scenario_shape_is_rejected(scen, consumer):
    # 5 time columns on the scenario's 21-node grid
    path = CollateralPath(np.ones((scen.n_paths, 5)), "USD")
    with pytest.raises(ConfigError, match="shape"):
        COLLATERAL_CONSUMERS[consumer](scen, path, CollateralSpec(currency="USD"))


@pytest.mark.parametrize("consumer", list(COLLATERAL_CONSUMERS))
@pytest.mark.parametrize("side", ["posted_asset", "received_asset"])
def test_risky_collateral_asset_in_another_currency_is_rejected(scen, consumer, side):
    # EQ is quoted in EUR; posting it as USD collateral would convert units at the wrong FX rate
    spec = CollateralSpec(currency="USD", form="risky", **{"posted_asset": "FEQ", "received_asset": "FEQ", side: "EQ"})
    with pytest.raises(ConfigError, match="EQ"):
        COLLATERAL_CONSUMERS[consumer](scen, _sign_varying_path(scen), spec)
