"""Ex-dividend prices of collateralized contracts at inception.

Two routes:

* ``price_exogenous``: Monte Carlo expectation of minus the discounted total
  stream (contract flows plus the convention-specific collateral carry, with
  the FX exposure replaced by its drift-equivalent form). It is the plain
  sample mean with no control variate, so it stays an independent check of
  the closed form; its error bar is the sample standard error of the
  antithetic pair means of the per-path totals
  (:func:`xccy.simulation.sample_mean`). It is one pass over the simulation
  chunks on the worker threads, each chunk read in time tiles: the
  collateral, the carry legs and the discounted flows are all pointwise in
  time or running sums in step order, so a chunk holds a few tiles and no
  (n_paths, n_times) array is made, whatever the path and step counts. With
  collateral in the domestic currency X is identically 1: the collateral
  legs skip the FX term and the product with X, and keep their bits wherever
  the collateral is finite (:func:`_add_collateral_legs`).
* ``price_fully_collateralized``: closed form for perfectly collateralized
  claims: flows discounted at the domestic collateral rate plus the
  cross-currency basis of the collateral currency, with foreign flows at the
  unsecured-differential FX forward.

Sign convention: a positive price is received by the hedger at inception.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .collateral import CollateralPath, CollateralSpec, TimeRows, carry_curves, check_collateral_path, priced_drivers
from .contracts import Contract
from .curves import step_pieces
from .errors import EndogenousSpecPassed, ScenarioMeasureMismatch
from .model import ValidatedModel, collateralized_value
from .simulation import (
    ScenarioSet,
    block_tiles,
    check_error_bar_paths,
    check_finite_estimate,
    combine_moments,
    pair_moments,
)
from .wealth import add_discounted_flows, flow_nodes


@dataclass(frozen=True)
class PriceReport:
    """Point estimate with its decomposition into contractual and collateral legs."""

    price: float
    std_error: float
    leg_contractual: float
    leg_collateral: float
    n_paths: int
    seed: int
    convention: str
    k2: str
    k3: str

    def to_dict(self) -> dict:
        return asdict(self)


def price_fully_collateralized(model: ValidatedModel, contract: Contract, k3: str) -> float:
    """Exact time-0 price of the contract under continuous full collateralization in k3.

    Minus the value at 0 of every flow, :func:`~xccy.model.collateralized_value`,
    converted at the spot X_k2(0). Requires symmetric collateral rates
    (borrow == lend) for the domestic and collateral currencies; deterministic
    rates make the result free of Monte Carlo error.
    """
    model.require_symmetric_collateral_rates(model.domestic, k3)
    x0 = 1.0 if contract.native_currency == model.domestic else model.fx_spec(contract.native_currency).x0
    return -float(collateralized_value(model, contract, k3, [0.0])[0]) * x0


def _discounted_spread_weights(plus_curve, minus_curve, inner_curve, times: np.ndarray) -> np.ndarray:
    """Exact integral of (plus - minus)(u) * exp(-int_{t_j}^{u} inner) over each step [t_j, t_{j+1}].

    All three curves are constant on each piece of :func:`~xccy.curves.step_pieces`,
    so the integrand is exponential there: a piece of width w at inner rate r
    integrates to w if r w == 0, else -expm1(-r w) / r, discounted from the
    step start by the summed r w of the step's earlier pieces.
    """
    lefts, widths, starts = step_pieces(times, plus_curve, minus_curve, inner_curve)
    r = inner_curve.rate(lefts)
    rw = r * widths
    flat = rw == 0.0
    piece = np.where(flat, widths, -np.expm1(-rw) / np.where(flat, 1.0, r))
    before = np.cumsum(rw) - rw
    before -= np.repeat(before[starts], np.diff(starts, append=len(rw)))  # within the step only
    gap = plus_curve.rate(lefts) - minus_curve.rate(lefts)
    return np.add.reduceat(np.exp(-before) * gap * piece, starts)


def _carry_leg_weights(model: ValidatedModel, spec: CollateralSpec, times: np.ndarray):
    """Per-interval weights for the received and posted carry.

    Within each interval the stochastic factor C * X / B_dom is frozen at the
    left endpoint and the remaining deterministic variation, including the FX
    forward drift against domestic discounting, integrates exactly to an
    inner discount at the collateral currency's unsecured rate. Deterministic
    collateral expectations therefore carry no time-stepping bias. Each weight
    is one pass of :func:`_discounted_spread_weights` over the whole grid.
    """
    recv_curve, post_curve = carry_curves(model, spec)
    borrow = model.curve(spec.currency, "collateral_borrow")
    lend = model.curve(spec.currency, "collateral_lend")
    r_k3 = model.curve(spec.currency, "unsecured")
    return (
        _discounted_spread_weights(recv_curve, borrow, r_k3, times),
        _discounted_spread_weights(post_curve, lend, r_k3, times),
    )


def _fx_leg_weight(model: ValidatedModel, spec: CollateralSpec, times: np.ndarray) -> np.ndarray:
    """Per-interval weight of the FX term, integrated as the carry weights are (:func:`_carry_leg_weights`).

    Its spread is r_dom - r_k3, so it is 0.0 on every interval when k3 is the
    domestic currency (the reduction suite asserts it).
    """
    r_k3 = model.curve(spec.currency, "unsecured")
    return _discounted_spread_weights(model.curve(model.domestic, "unsecured"), r_k3, r_k3, times)


def _leg_weights(model: ValidatedModel, spec: CollateralSpec, times: np.ndarray) -> tuple:
    """The per-step (received, posted, FX) weights of the collateral legs (:func:`_add_collateral_legs`).

    The posted weight is ``None`` where it equals the received one on every
    step, and the FX weight is ``None`` for domestic collateral.
    """
    w_recv, w_post = _carry_leg_weights(model, spec, times)
    w_fx = None if spec.currency == model.domestic else _fx_leg_weight(model, spec, times)
    return w_recv, None if np.array_equal(w_recv, w_post) else w_post, w_fx


# a non-finite collateral gives a non-finite leg, which the price's check_finite_estimate reports
@np.errstate(over="ignore", invalid="ignore")
def _add_collateral_legs(legs, c, x, weights: tuple, steps: slice, b_e: np.ndarray, owned: bool = False) -> None:
    """Add the steps ``steps`` of the collateral carry, FX term included, discounted to 0, to the per-path ``legs``.

    The one definition of the collateral legs. ``c`` and ``x`` are the time
    rows of C and of X_k3 at the steps' left ends, ``x`` ``None`` for domestic
    collateral, and ``weights`` are :func:`_leg_weights` on the grid, ``b_e``
    the domestic account. Each step is C times the weight of its sign's leg,
    less C times the FX weight, times X / B_dom. The steps are added to the
    running per-path total in step order: the first row takes the total so
    far, and the block is summed over its rows, which numpy does one row
    after another. So the legs are, bit for bit and for any tiling, the
    column-by-column row sums of one whole F-ordered (n_paths, n_steps)
    array; a tile's only temporaries are of its own size.

    With ``owned``, ``c`` is the caller's to overwrite (a lazy path's builder
    returns a fresh array for each tile), and the legs hold one tile-sized
    array beside it: with one weight the carry is computed in ``c`` after the
    FX term's product C * w_fx is taken, and with ``np.where``'s weights that
    product is computed in ``c`` after the carry w * C is taken. Without it
    ``c`` is not written (a caller's stored path), at the cost of one more
    such array. Each element's operations are the same either way.

    Domestic collateral skips the FX term and the product with X, which is
    identically 1 (:meth:`~xccy.simulation.ScenarioSet.fx_factor`), and its
    FX weight is not computed: with a 0.0 weight the term is a signed zero,
    and a signed zero cannot move a per-path sum that starts at +0.0, so a
    path whose collateral is finite keeps the general leg's bits. On a path
    whose collateral is not finite, the general C * 0.0 is NaN; the domestic
    leg is the ±inf or NaN that the domestic arithmetic gives, non-finite
    either way, which :func:`price_exogenous` reports. An overflow in the
    arithmetic raises no numpy warning. When the received and posted weights
    are equal on every step, as for cash under rehypothecation with equal
    posting and unsecured domestic curves and symmetric collateral rates, C
    is multiplied by that one weight without ``np.where``, which picks it on
    either sign (C * w is w * C bit for bit).
    """
    w_recv, w_post, w_fx = (None if w is None else w[steps, None] for w in weights)
    out = c if owned else None
    if w_post is None:
        fx = None if x is None else c * w_fx  # taken before c is overwritten
        carry = np.multiply(c, w_recv, out=out)
    else:
        carry = np.where(c > 0, w_recv, w_post)
        carry *= c
        fx = None if x is None else np.multiply(c, w_fx, out=out)
    if x is not None:
        carry -= fx
        carry *= x
    carry /= b_e[steps, None]
    carry[0] += legs
    carry.sum(axis=0, out=legs)


def _discounted_collateral_legs(
    scenario: ScenarioSet, coll_path: CollateralPath, spec: CollateralSpec
) -> np.ndarray:
    """Per-path sum over the steps of the collateral carry, FX term included, discounted to 0, of a whole scenario.

    :func:`_add_collateral_legs` over the :func:`~xccy.simulation.block_tiles`
    of the path's time rows (one row in column slices once a row is wider
    than a tile), so no temporary is larger than a tile: the per-path legs
    whose mean :func:`price_exogenous` takes chunk by chunk.
    """
    model = scenario.model
    weights = _leg_weights(model, spec, scenario.grid.times)
    b_e = scenario.account(model.domestic)
    x = scenario.fx_factor(spec.currency)
    c = coll_path.c[:, :-1].T
    legs = np.zeros(scenario.n_paths)
    for steps, paths in block_tiles(len(c), c.shape[1], c[:1].nbytes):
        x_steps = None if x is None else x.T[steps, paths]
        _add_collateral_legs(legs[paths], c[steps, paths], x_steps, weights, steps, b_e)
    return legs


def price_exogenous(
    scenario: ScenarioSet,
    contract: Contract,
    coll_path: CollateralPath,
    spec: CollateralSpec,
) -> PriceReport:
    """Monte Carlo ex-dividend price at t=0 with a predetermined collateral path: one pass over the chunks.

    Each simulation chunk is read in time tiles
    (:meth:`~xccy.simulation.ScenarioSet.map_tiles`) on the worker threads.
    A lazy path of this scenario whose ``c`` has not been read is built tile
    by tile (``CollateralPath.at``), at the nodes lo .. hi - 1 of a tile of
    nodes lo .. hi and at the horizon too in the last tile, so each node is
    built, and its FX level checked (:class:`~xccy.errors.NonPositiveFx`),
    once, and the legs may overwrite it; any other path is read by the
    tile's rows and the chunk's columns, and never written. Each tile's steps
    are added to the per-path collateral legs (:func:`_add_collateral_legs`)
    and its flows to the per-path contractual legs
    (:func:`~xccy.wealth.add_discounted_flows`) in a function of its own, so
    the tile's collateral is freed before the next tile is drawn: a chunk
    holds a few tiles and two vectors of its paths, whatever the path and
    step counts. Each chunk gives the means of its two legs and the
    :func:`pair_moments` of their sum, combined in chunk order
    (:func:`combine_moments`): the error bar is
    :func:`~xccy.simulation.sample_mean`'s bit for bit, and with one chunk
    the leg means are ``np.mean``'s; over several chunks they may differ from
    ``np.mean`` of all paths in the last bits.

    A path count with no error bar (:func:`~xccy.simulation.check_error_bar_paths`)
    raises :class:`~xccy.errors.ConfigError` before any driver is simulated. A
    price or error bar that is not finite raises :class:`~xccy.errors.NumericalError`
    (:func:`~xccy.simulation.check_finite_estimate`).
    """
    if scenario.measure_tag != "qe":
        raise ScenarioMeasureMismatch(
            f"pricing requires a martingale-measure scenario, got {scenario.measure_tag!r}"
        )
    if spec.endogenous:
        raise EndogenousSpecPassed("endogenous collateral must be priced with the BSDE solver")
    check_collateral_path(scenario, coll_path, spec)
    check_error_bar_paths(scenario.n_paths)
    model, times = scenario.model, scenario.grid.times
    lazy = not coll_path.built and coll_path.source[0] is scenario
    drivers = priced_drivers(model, spec, contract) + (coll_path.drivers if lazy else [])
    c_rows = None if lazy else coll_path.c.T
    weights = _leg_weights(model, spec, times)
    b_e = scenario.account(model.domestic)
    flows = list(zip(flow_nodes(scenario.grid, contract).tolist(), (amount for _, amount in contract.flows)))

    def add_tile(leg_contract, leg_coll, cols: slice, nodes: slice, levels: dict) -> None:
        # the tile's collateral and rows are locals: they are freed on return, before the next tile is drawn
        lo, hi, n = nodes.start, nodes.stop - 1, cols.stop - cols.start
        rows = TimeRows(model, nodes, levels, n)
        end = nodes.stop if hi == len(times) - 1 else hi  # a lazy path is built at lo .. hi - 1, and at the horizon
        built = TimeRows(model, slice(lo, end), {label: level[: end - lo] for label, level in levels.items()}, n)
        c = coll_path.at(built) if lazy else c_rows[nodes, cols]
        x = rows.fx(spec.currency)
        x = None if x is None else x[:-1]
        _add_collateral_legs(leg_coll, c[: hi - lo], x, weights, slice(lo, hi), b_e, owned=lazy)
        tile_flows = [(j - lo, amount) for j, amount in flows if lo < j <= hi]
        add_discounted_flows(leg_contract, tile_flows, rows.fx(contract.native_currency), b_e[nodes])

    @np.errstate(over="ignore", invalid="ignore")  # check_finite_estimate reports an overflow
    def chunk(cols: slice, tiles) -> tuple:
        n = cols.stop - cols.start
        leg_contract, leg_coll = np.zeros(n), np.zeros(n)
        for nodes, levels in tiles:
            add_tile(leg_contract, leg_coll, cols, nodes, levels)
        return pair_moments(leg_contract + leg_coll), np.array([np.mean(leg_contract), np.mean(leg_coll)])

    parts = scenario.map_tiles(chunk, *drivers)
    _, se = combine_moments(moments for moments, _ in parts)
    # the leg means by the same update, with no spread to combine
    legs, _ = combine_moments((k, means, np.zeros(2)) for (k, _, _), means in parts)
    leg_contractual, leg_collateral = -float(legs[0]), -float(legs[1])
    price = leg_contractual + leg_collateral
    check_finite_estimate("price", price, se)
    return PriceReport(
        price=price,
        std_error=float(se),
        leg_contractual=leg_contractual,
        leg_collateral=leg_collateral,
        n_paths=scenario.n_paths,
        seed=scenario.seed,
        convention=f"{spec.form}/{spec.convention}",
        k2=contract.native_currency,
        k3=spec.currency,
    )
