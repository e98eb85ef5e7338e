"""The domestic currency is the unit: each reader that skips a product or quotient with X = 1, or with a
unit haircut factor, gives the general arithmetic's bits, forced here with explicit ones arrays and
``np.where`` factors."""

import numpy as np
import pytest

from conftest import peak_traced_bytes
from xccy import CollateralPath, CollateralSpec, Contract, TimeGrid, price_exogenous, simulate
from xccy.collateral import _apply_haircut, build_exogenous_path
from xccy.errors import NumericalError, UnknownCurrency
from xccy.model import collateralized_value
from xccy.pricing import _carry_leg_weights, _discounted_collateral_legs, _fx_leg_weight
from xccy.simulation import TILE_BYTES, block_tiles

# every kind of mark the skips must carry through: signed zeros, infinities, NaN and both signs
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5, 1e-300, -1e-300, 1e308, -1e308])


def same_bits(a, b) -> bool:
    """Equal values, NaN where NaN, and the same sign bits (a NaN's included)."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.fixture(scope="module")
def scen(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 12), 400, seed=3)
    scen.load()
    return scen


def _marks(shape, seed=0):
    """Both signs of finite marks, with every special value on some entries."""
    marks = np.random.default_rng(seed).normal(size=shape)
    spread = marks.reshape(-1)[:: max(1, marks.size // len(SPECIAL))]  # a view: marks is C-ordered
    n = min(len(SPECIAL), len(spread))
    spread[:n] = SPECIAL[:n]
    return marks


def _general_haircut(marks, spec, fx):
    return marks * np.where(marks > 0, 1.0 + spec.delta1, 1.0 + spec.delta2) / fx


def test_fx_factor_is_none_for_the_domestic_currency_and_the_fx_path_otherwise(scen):
    assert scen.fx_factor("EUR") is None
    assert np.shares_memory(scen.fx_factor("USD"), scen.driver("fx:USD"))
    assert np.array_equal(scen.fx_factor("USD"), scen.fx("USD"))
    assert np.all(scen.fx("EUR") == 1.0)
    with pytest.raises(UnknownCurrency):
        scen.fx_factor("GBP")


@pytest.mark.parametrize("deltas", [(0.0, 0.0), (0.3, 0.3), (0.05, 0.02), (-0.5, 0.25)])
@pytest.mark.parametrize("fx_kind", ["domestic", "foreign"])
def test_haircut_skips_give_the_general_rule_bit_for_bit(deltas, fx_kind):
    spec = CollateralSpec(currency="USD", delta1=deltas[0], delta2=deltas[1])
    marks = _marks((7, 33))
    fx = np.ones_like(marks) if fx_kind == "domestic" else np.random.default_rng(1).uniform(0.5, 2.0, marks.shape)
    c = marks.copy()
    with np.errstate(all="ignore"):
        _apply_haircut(c, spec, None if fx_kind == "domestic" else fx)
        reference = _general_haircut(marks, spec, fx)
    assert same_bits(c, reference)
    if fx_kind == "foreign":  # the quotient is taken: without it the collateral would differ
        assert not np.array_equal(c, reference * fx, equal_nan=True)


def test_unequal_haircuts_still_pick_the_factor_by_sign():
    spec = CollateralSpec(currency="EUR", delta1=0.5, delta2=0.0)
    c = np.array([2.0, -2.0, 0.0, -0.0])
    _apply_haircut(c, spec, None)
    assert same_bits(c, [3.0, -2.0, 0.0, -0.0])


def test_a_domestic_zero_haircut_leaves_the_marks_untouched():
    marks = _marks((5, 9))
    c = marks.copy()
    _apply_haircut(c, CollateralSpec(currency="EUR"), None)
    assert same_bits(c, marks)


@pytest.mark.parametrize("deltas", [(0.0, 0.0), (0.3, 0.3), (0.05, 0.02)])
@pytest.mark.parametrize("k3", ["EUR", "USD"])
def test_mark_proxy_path_is_the_general_rule_on_the_mark(scen, k3, deltas):
    spec = CollateralSpec(currency=k3, delta1=deltas[0], delta2=deltas[1], mode=("exogenous", "mark_proxy", {}))
    contract = Contract("USD", ((0.5, 1.0), (1.0, -1.5)))
    mark = collateralized_value(scen.model, contract, k3, scen.grid.times) * scen.fx("USD")
    fx = np.ones_like(mark) if k3 == "EUR" else scen.fx("USD")
    reference = _general_haircut(mark, spec, fx)
    reference[:, -1] = 0.0
    assert same_bits(build_exogenous_path(scen, spec, contract).c, reference)


def _general_legs(scen, coll, spec):
    """The legs over one whole array, with explicit ones for a domestic X and the computed FX weight."""
    times = scen.grid.times
    (w_recv, w_post), w_fx = _carry_leg_weights(scen.model, spec, times), _fx_leg_weight(scen.model, spec, times)
    c = coll.c[:, :-1]
    carry = np.where(c > 0, w_recv, w_post)
    carry *= c
    carry -= c * w_fx
    carry *= np.array(scen.fx(spec.currency))[:, :-1]
    carry /= scen.account(scen.model.domestic)[:-1]
    return carry.sum(axis=1)


@pytest.mark.parametrize("k3", ["EUR", "USD"])
@pytest.mark.parametrize("form, convention", [("cash", "rehypothecation"), ("cash", "segregation")])
def test_collateral_legs_skip_the_domestic_fx_term_bit_for_bit(scen, k3, form, convention):
    spec = CollateralSpec(currency=k3, form=form, convention=convention)
    w_recv, w_post = _carry_leg_weights(scen.model, spec, scen.grid.times)
    # one weight for both signs of C in the domestic cash/rehypothecation case alone
    assert np.array_equal(w_recv, w_post) == (k3 == "EUR" and convention == "rehypothecation")
    marks = np.random.default_rng(4).normal(size=(scen.n_paths, len(scen.grid.times)))
    marks[:40] = np.abs(marks[:40])  # paths of one sign, and all-zero paths of each sign
    marks[40:80] = -np.abs(marks[40:80])
    marks[80], marks[81] = -0.0, 0.0
    marks[100 : 100 + len(SPECIAL), 2] = SPECIAL  # one special value mid-path
    marks[120, 1:4] = [np.inf, -np.inf, np.nan]
    coll = CollateralPath(marks, k3)
    legs = _discounted_collateral_legs(scen, coll, spec)  # warns of no overflow: the price reports it
    with np.errstate(all="ignore"):
        reference = _general_legs(scen, coll, spec)
    finite = np.isfinite(coll.c[:, :-1]).all(axis=1)
    assert (~finite).any()
    assert same_bits(legs[finite], reference[finite])
    # a non-finite collateral gives a non-finite leg, the general NaN of C * 0.0 or the domestic ±inf or NaN
    assert np.array_equal(np.isfinite(legs), finite)
    if k3 == "USD":  # no skip: the general arithmetic itself
        assert np.array_equal(legs, reference, equal_nan=True)
    assert not np.signbit(legs[80]) and legs[80] == 0.0


def test_domestic_legs_over_many_tiles_are_the_general_arithmetic(two_currency_model):
    # three tiles of time rows and a part one, paths of both signs and signed zeros
    n_paths = 2000
    n_steps = 3 * TILE_BYTES // (8 * n_paths) + 7
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, n_steps), n_paths, seed=8)
    spec = CollateralSpec(currency="EUR", delta1=0.3, delta2=0.1, mode=("exogenous", "mark_proxy", {}))
    coll = build_exogenous_path(scen, spec, Contract("USD", ((0.5, 1.0), (1.0, -1.5))))
    coll.c[::3] *= -1.0
    coll.c[::5, 7], coll.c[1::5, 9] = 0.0, -0.0
    assert same_bits(_discounted_collateral_legs(scen, coll, spec), _general_legs(scen, coll, spec))


def test_an_overflowing_mark_under_domestic_collateral_raises_the_general_failure(scen):
    # 1.7e308 times a haircut factor of 1.5 is inf: the general FX term inf * 0.0 makes the leg NaN, the
    # domestic legs -inf or NaN; either is a non-finite price, and neither pass warns first
    contract = Contract("EUR", ((1.0, 1.7e308),))
    spec = CollateralSpec(currency="EUR", delta1=0.5, delta2=0.5, mode=("exogenous", "mark_proxy", {}))
    coll = build_exogenous_path(scen, spec, contract)
    assert np.isinf(coll.c).any()
    with pytest.raises(NumericalError, match=r"^non-finite price: (-?inf|nan) with standard error nan$"):
        price_exogenous(scen, contract, coll, spec)


@pytest.mark.parametrize(
    "shape", [(1, 1), (5, 3), (3, TILE_BYTES // 8), (2, TILE_BYTES // 8 + 1), (3, 3 * TILE_BYTES // 8 + 5)]
)
def test_block_tiles_cover_each_element_once_row_by_row_within_a_tile(shape):
    n_rows, n_cols = shape
    seen = np.zeros(shape, dtype=int)
    order = []
    for rows, cols in block_tiles(n_rows, n_cols, 8 * n_cols):
        assert rows.stop > rows.start and cols.stop > cols.start
        assert (rows.stop - rows.start) * (cols.stop - cols.start) * 8 <= TILE_BYTES
        seen[rows, cols] += 1
        order.append((rows.start, cols.start))
    assert (seen == 1).all() and order == sorted(order)


WIDE_PATHS = 4 * TILE_BYTES // 8  # one time row is four tiles wide


@pytest.fixture(scope="module")
def wide_scen(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 2), WIDE_PATHS, seed=9)
    scen.load()
    return scen


def test_haircut_of_wide_rows_takes_memory_of_a_tile(wide_scen):
    spec = CollateralSpec(currency="USD", delta1=0.3, delta2=0.1)
    fx = wide_scen.fx("USD").T
    c = np.array(fx - 1.0)  # both signs, C-ordered time rows
    peak = peak_traced_bytes(lambda: _apply_haircut(c, spec, fx))
    assert peak <= 2 * TILE_BYTES, peak


def test_collateral_legs_of_wide_rows_take_memory_of_a_few_tiles(wide_scen):
    spec = CollateralSpec(currency="USD", delta1=0.3, delta2=0.1)
    coll = CollateralPath(wide_scen.fx("USD") - 1.0, "USD")
    legs = WIDE_PATHS * 8
    peak = peak_traced_bytes(lambda: _discounted_collateral_legs(wide_scen, coll, spec))
    assert peak <= legs + 3 * TILE_BYTES, (peak, legs)
    assert np.array_equal(_discounted_collateral_legs(wide_scen, coll, spec), _general_legs(wide_scen, coll, spec))


def test_non_finite_domestic_legs_are_marked_in_memory_of_a_tile(two_currency_model):
    # four wide time rows, each four tiles wide: a non-finite C stays in its own path's leg, tile by tile
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), WIDE_PATHS, seed=9)
    c = np.zeros((WIDE_PATHS, 5), order="F")
    c[::2] = 1.0
    c[5, 1], c[6, 2], c[WIDE_PATHS - 1, 3] = np.inf, -np.inf, np.nan
    coll = CollateralPath(c, "EUR")
    out = []
    peak = peak_traced_bytes(lambda: out.append(_discounted_collateral_legs(scen, coll, CollateralSpec(currency="EUR"))))
    legs = WIDE_PATHS * 8
    assert peak <= legs + 2 * TILE_BYTES, (peak, legs)
    assert np.flatnonzero(~np.isfinite(out[0])).tolist() == [5, 6, WIDE_PATHS - 1]
    with np.errstate(all="ignore"):
        reference = _general_legs(scen, coll, CollateralSpec(currency="EUR"))
    finite = np.isfinite(out[0])
    assert same_bits(out[0][finite], reference[finite])
