import math

import numpy as np
import pytest

from conftest import build_model, curveset, peak_traced_bytes
from xccy import (
    CollateralPath,
    CollateralSpec,
    Contract,
    FxSpec,
    TimeGrid,
    build_exogenous_path,
    cross_currency_basis,
    price_exogenous,
    price_fully_collateralized,
    simulate,
)
from xccy.errors import (
    AsymmetricCollateralRates,
    ConfigError,
    EndogenousSpecPassed,
    NumericalError,
    ScenarioMeasureMismatch,
)
from xccy.collateral import carry_curves
from xccy.pricing import _carry_leg_weights, _discounted_collateral_legs, _fx_leg_weight
from xccy.simulation import TILE_BYTES


@pytest.fixture(scope="module")
def scen(two_currency_model):
    return simulate(two_currency_model, TimeGrid.regular(1.0, 20), 50_000, seed=3)


def _zero_coll(scen, currency="USD"):
    return CollateralPath(np.zeros((scen.n_paths, len(scen.grid.times))), currency)


REHYP = CollateralSpec(currency="USD", form="cash", convention="rehypothecation")


def test_uncollateralized_domestic_flow_is_deterministic(scen):
    contract = Contract("EUR", ((1.0, -1.0),))
    report = price_exogenous(scen, contract, _zero_coll(scen), REHYP)
    assert report.price == pytest.approx(math.exp(-0.02), rel=1e-14)
    assert report.leg_collateral == 0.0
    assert report.std_error == pytest.approx(0.0, abs=1e-15)


def test_uncollateralized_foreign_flow_within_3se(scen):
    contract = Contract("USD", ((1.0, -1.0),))
    report = price_exogenous(scen, contract, _zero_coll(scen), REHYP)
    expected = 0.9 * math.exp(-0.03)
    assert report.std_error > 0
    assert abs(report.price - expected) <= 3 * report.std_error


def test_constant_collateral_matches_quadrature_oracle(two_currency_model):
    # zero contract, cash rehypothecation, constant C = 1 unit of USD; every
    # integrand is deterministic after taking the FX expectation, so a fine
    # Riemann sum of the closed-form integrand is an independent oracle
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 50), 100_000, seed=11)
    const = CollateralPath(np.ones((scen.n_paths, len(scen.grid.times))), "USD")
    report = price_exogenous(scen, Contract.zero("EUR"), const, REHYP)
    n = 10**6
    u = (np.arange(n) + 0.5) / n
    r_e, rc_b, r_k3, x0 = 0.02, 0.022, 0.03, 0.9
    integrand = np.exp(-r_k3 * u) * ((r_e - rc_b) - (r_e - r_k3))
    oracle = -x0 * integrand.sum() / n
    assert abs(report.price - oracle) <= 3 * report.std_error


def test_price_decomposes_exactly(scen):
    contract = Contract("USD", ((0.5, 2.0), (1.0, -1.0)))
    coll = CollateralPath(np.sin(scen.fx("USD")), "USD")
    report = price_exogenous(scen, contract, coll, REHYP)
    assert report.price == report.leg_contractual + report.leg_collateral


def test_linearity_in_the_contract(scen):
    a1 = Contract("USD", ((0.5, 1.0),))
    a2 = Contract("USD", ((1.0, -2.0),))
    both = Contract("USD", ((0.5, 1.0), (1.0, -2.0)))
    coll = CollateralPath(np.cos(scen.fx("USD")), "USD")
    p1 = price_exogenous(scen, a1, coll, REHYP)
    p12 = price_exogenous(scen, both, coll, REHYP)
    p2 = price_exogenous(scen, a2, coll, REHYP)
    # same scenario, same collateral: contractual legs add path-exactly
    assert p12.leg_contractual == pytest.approx(p1.leg_contractual + p2.leg_contractual, rel=1e-12)
    assert p12.leg_collateral == p1.leg_collateral == p2.leg_collateral


def test_endogenous_spec_rejected(scen):
    spec = CollateralSpec(currency="USD", mode=("endogenous",))
    with pytest.raises(EndogenousSpecPassed):
        price_exogenous(scen, Contract.zero("EUR"), _zero_coll(scen), spec)


def test_measure_mismatch_rejected(two_currency_model):
    shifted = simulate(
        two_currency_model, TimeGrid.regular(1.0, 4), 100, seed=1, drift_shift={"fx:USD": 0.02}
    )
    with pytest.raises(ScenarioMeasureMismatch):
        price_exogenous(shifted, Contract.zero("EUR"), _zero_coll(shifted), REHYP)


def test_full_collateral_domestic_domestic():
    rates = {"EUR": curveset(0.02, 0.01, 0.01, cash_post=0.02)}
    model = build_model([("EUR", True)], rates)
    contract = Contract("EUR", ((2.0, -1.0),))
    assert price_fully_collateralized(model, contract, "EUR") == pytest.approx(
        math.exp(-0.01 * 2.0), rel=1e-14
    )


def test_full_collateral_foreign_collateral_adds_basis():
    # q = (r_e - r_k) - (rc_e - rc_k) = 0.007; discount at rc_e + q = 0.017
    rates = {
        "EUR": curveset(0.03, 0.01, 0.01, cash_post=0.03),
        "USD": curveset(0.01, 0.002, 0.002, cash_post=0.01),
    }
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 1.2, 0.1)])
    q = cross_currency_basis(model, "USD", 0.0)
    assert q == pytest.approx(0.012, abs=1e-15)
    contract = Contract("EUR", ((1.0, -1.0),))
    assert price_fully_collateralized(model, contract, "USD") == pytest.approx(
        math.exp(-(0.01 + q)), rel=1e-14
    )


def test_full_collateral_foreign_flows_domestic_collateral(two_currency_model):
    contract = Contract("USD", ((1.0, -1.0),))
    # X_0 * exp((r_e - r_k2) T) * exp(-rc_e T)
    expected = 0.9 * math.exp(0.02 - 0.03) * math.exp(-0.015)
    assert price_fully_collateralized(two_currency_model, contract, "EUR") == pytest.approx(
        expected, rel=1e-14
    )


def test_full_collateral_requires_symmetric_rates():
    rates = {
        "EUR": curveset(0.02, 0.015, 0.014, cash_post=0.02),
    }
    model = build_model([("EUR", True)], rates)
    with pytest.raises(AsymmetricCollateralRates):
        price_fully_collateralized(model, Contract("EUR", ((1.0, -1.0),)), "EUR")


def test_exogenous_full_collateral_proxy_matches_closed_form(bsde_two_currency_model):
    # collateral pegged to the deterministic mark proxy at zero haircuts is the
    # Monte Carlo twin of the closed form; needs cash posted out of the
    # domestic account, which is what the closed form assumes
    from xccy import build_exogenous_path

    scen = simulate(bsde_two_currency_model, TimeGrid.regular(1.0, 50), 20_000, seed=19)
    contract = Contract("EUR", ((1.0, -1.0),))
    spec = CollateralSpec(currency="USD", mode=("exogenous", "mark_proxy", {}))
    coll = build_exogenous_path(scen, spec, contract)
    report = price_exogenous(scen, contract, coll, spec)
    closed = price_fully_collateralized(bsde_two_currency_model, contract, "USD")
    assert abs(report.price - closed) <= max(3 * report.std_error, 2e-4 * abs(closed))


def test_se_scales_as_inverse_sqrt_n(two_currency_model):
    grid = TimeGrid.regular(1.0, 10)
    contract = Contract("USD", ((1.0, -1.0),))
    ratios = []
    for seed in (1, 2, 3, 4, 5):
        small = simulate(two_currency_model, grid, 4000, seed=seed)
        large = simulate(two_currency_model, grid, 16000, seed=seed + 100)
        se_small = price_exogenous(small, contract, _zero_coll(small), REHYP).std_error
        se_large = price_exogenous(large, contract, _zero_coll(large), REHYP).std_error
        ratios.append(se_small / se_large)
    assert np.mean(ratios) == pytest.approx(2.0, rel=0.2)


def test_price_std_error_matches_the_spread_over_seeds(two_currency_model):
    # the error bar must describe how the price moves from seed to seed; under
    # antithetic pairs a per-path standard error would overstate it several times
    grid = TimeGrid.regular(1.0, 10, include=[0.5])
    contract = Contract("USD", ((0.5, 2.0), (1.0, -1.0)))
    reports = []
    for seed in range(11, 31):
        scen = simulate(two_currency_model, grid, 4000, seed=seed)
        reports.append(price_exogenous(scen, contract, _zero_coll(scen), REHYP))
    spread = np.std([r.price for r in reports], ddof=1)
    median_se = np.median([r.std_error for r in reports])
    assert 0.5 * spread <= median_se <= 2.0 * spread


def test_single_currency_reduction_price(single_currency_model):
    scen = simulate(single_currency_model, TimeGrid.regular(1.0, 10), 5000, seed=2)
    contract = Contract("EUR", ((1.0, -1.0),))
    spec = CollateralSpec(currency="EUR")
    report = price_exogenous(scen, contract, CollateralPath(np.zeros((5000, 11)), "EUR"), spec)
    from xccy import discounted_flows

    bare = -float(np.mean(discounted_flows(scen, contract)))
    assert report.price == bare
    assert report.leg_collateral == 0.0


def _scalar_spread_weight(plus_curve, minus_curve, inner_curve, t0, t1):
    """Integral of (plus - minus)(u) exp(-int_{t0}^{u} inner) over [t0, t1], piece by piece."""
    knots = np.concatenate([plus_curve.knots, minus_curve.knots, inner_curve.knots])
    edges = np.unique(np.concatenate([[t0], knots[(knots > t0) & (knots < t1)], [t1]]))
    disc, total = 1.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        g = plus_curve.rate(mid) - minus_curve.rate(mid)
        r = inner_curve.rate(mid)
        rw = r * (b - a)
        total += disc * g * ((b - a) if rw == 0.0 else -math.expm1(-rw) / r)
        disc *= math.exp(-rw)
    return total


@pytest.mark.parametrize(
    "form,convention",
    [(f, c) for f in ("cash", "risky") for c in ("segregation", "rehypothecation")],
)
@pytest.mark.parametrize("k3", ["EUR", "USD"])
def test_collateral_leg_weights_match_scalar_reference(multi_knot_model, k3, form, convention):
    model = multi_knot_model
    labels = {"posted_asset": "A", "received_asset": "A"} if form == "risky" else {}
    spec = CollateralSpec(currency=k3, form=form, convention=convention, **labels)
    times = TimeGrid.regular(2.0, 16, include=(0.3, 1.93)).times
    recv, post = carry_curves(model, spec)
    r_e, r_k3 = model.curve("EUR", "unsecured"), model.curve(k3, "unsecured")
    triples = [
        (recv, model.curve(k3, "collateral_borrow"), r_k3),
        (post, model.curve(k3, "collateral_lend"), r_k3),
        (r_e, r_k3, r_k3),
    ]
    weights = (*_carry_leg_weights(model, spec, times), _fx_leg_weight(model, spec, times))
    for weight, curves in zip(weights, triples):
        ref = [_scalar_spread_weight(*curves, a, b) for a, b in zip(times[:-1], times[1:])]
        np.testing.assert_allclose(weight, ref, rtol=1e-13, atol=0.0)


def test_price_needs_two_paths(two_currency_model):
    scen1 = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 1, seed=0)
    with pytest.raises(ConfigError):
        price_exogenous(scen1, Contract("EUR", ((1.0, -1.0),)), CollateralPath(np.zeros((1, 5)), "USD"),
                        CollateralSpec(currency="USD"))


def _whole_array_legs(scen, coll, spec):
    """The per-path collateral legs over one (n_paths, n_steps) array, as computed before path blocks."""
    times = scen.grid.times
    (w_recv, w_post), w_fx = _carry_leg_weights(scen.model, spec, times), _fx_leg_weight(scen.model, spec, times)
    c = coll.c[:, :-1]
    carry = np.where(c > 0, w_recv, w_post)
    carry *= c
    carry -= c * w_fx
    carry *= scen.fx(spec.currency)[:, :-1]
    carry /= scen.account(scen.model.domestic)[:-1]
    return carry.sum(axis=1)


LEG_PATHS = 2000
# time rows per tile of the leg; odd, so whole tiles plus 0, 1 or 2 rows can all be an even step
# count, whose grid holds the flow date 0.5
TILE_ROWS = TILE_BYTES // (8 * LEG_PATHS)


@pytest.mark.parametrize("remainder", [0, 1, 2])
@pytest.mark.parametrize("functional", ["constant", "mark_proxy"])
def test_leg_in_path_blocks_matches_the_whole_array_bit_for_bit(two_currency_model, functional, remainder):
    # every path is time-major; the last tile of time rows holds a full tile, one row or two
    assert TILE_ROWS % 2 == 1
    n_steps = (4 - remainder % 2) * TILE_ROWS + remainder
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, n_steps), LEG_PATHS, seed=8)
    contract = Contract("USD", ((0.5, 1.0), (1.0, -1.5)))
    params = {"level": 2.5} if functional == "constant" else {}
    spec = CollateralSpec(currency="USD", delta1=0.3, delta2=0.1, mode=("exogenous", functional, params))
    coll = build_exogenous_path(scen, spec, contract)
    assert coll.c.flags.f_contiguous
    coll.c[::3] *= -1.0  # in place, so the memory order stays
    coll.c[::5, 7], coll.c[1::5, 9] = 0.0, -0.0
    assert (coll.c > 0).any() and (coll.c < 0).any() and np.signbit(coll.c[1, 9])
    legs = _whole_array_legs(scen, coll, spec)
    assert np.array_equal(_discounted_collateral_legs(scen, coll, spec), legs)
    assert price_exogenous(scen, contract, coll, spec).leg_collateral == -float(np.mean(legs))


def test_price_exogenous_takes_memory_of_a_few_tiles(long_scen):
    spec = CollateralSpec(currency="USD", delta1=0.3, delta2=0.1, mode=("exogenous", "mark_proxy", {}))
    contract = Contract("USD", ((0.5, 1.0), (1.0, -1.5)))
    coll = build_exogenous_path(long_scen, spec, contract)
    peak = peak_traced_bytes(lambda: price_exogenous(long_scen, contract, coll, spec))
    n_steps = len(long_scen.grid.times) - 1
    assert peak <= 4 * TILE_BYTES + 16 * 8 * (long_scen.n_paths + n_steps), peak


def test_non_finite_price_raises_naming_the_estimate(two_currency_model):
    # a foreign flow of -1e308 overflows on paths where X_USD > 1: the mean is -inf, the error bar NaN,
    # which a report could only write as Infinity and NaN
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 2000, seed=1)
    contract = Contract("USD", ((1.0, -1e308),))
    spec = CollateralSpec(currency="USD")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="non-finite price"):
        price_exogenous(scen, contract, _zero_coll(scen), spec)
