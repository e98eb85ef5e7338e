"""Ex-dividend prices of collateralized contracts at inception.

Two routes:

* ``price_exogenous``: Monte Carlo expectation of minus the discounted total
  stream (contract flows plus the convention-specific collateral carry, with
  the FX exposure replaced by its drift-equivalent form). It is the plain
  sample mean with no control variate, so it stays an independent check of
  the closed form; its error bar is the sample standard error of the
  antithetic pair means of the per-path totals
  (:func:`xccy.simulation.sample_mean`).
* ``price_fully_collateralized``: closed form for perfectly collateralized
  claims: flows discounted at the domestic collateral rate plus the
  cross-currency basis of the collateral currency, with foreign flows at the
  unsecured-differential FX forward.

Sign convention: a positive price is received by the hedger at inception.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .collateral import CollateralPath, CollateralSpec, carry_curves, check_collateral_path
from .contracts import Contract
from .curves import step_pieces
from .errors import (
    AsymmetricCollateralRates,
    EndogenousSpecPassed,
    ScenarioMeasureMismatch,
)
from .model import ValidatedModel, collateralized_log_growth, cross_currency_basis_of
from .simulation import ScenarioSet, sample_mean
from .wealth import discounted_flows


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


def _require_symmetric(model: ValidatedModel, currency: str) -> None:
    if not model.has_symmetric_collateral_rates(currency):
        raise AsymmetricCollateralRates(
            f"closed-form pricing needs collateral borrow == lend for {currency!r}"
        )


def price_fully_collateralized(model: ValidatedModel, contract: Contract, k3: str) -> float:
    """Exact time-0 price of the contract under continuous full collateralization in k3.

    Requires symmetric collateral rates (borrow == lend) for the domestic and
    collateral currencies; deterministic rates make the result free of Monte
    Carlo error.
    """
    _require_symmetric(model, model.domestic)
    _require_symmetric(model, k3)
    x0 = 1.0 if contract.native_currency == model.domestic else model.fx_spec(contract.native_currency).x0
    growth = np.exp(collateralized_log_growth(model, contract.native_currency, k3, contract.flow_times))
    return -float(np.sum(growth * [a for _, a in contract.flows])) * x0


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


def _collateral_leg_weights(model: ValidatedModel, spec: CollateralSpec, times: np.ndarray):
    """Per-interval weights for the received carry, posted carry and FX term.

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
    r_e = model.curve(model.domestic, "unsecured")
    r_k3 = model.curve(spec.currency, "unsecured")
    return (
        _discounted_spread_weights(recv_curve, borrow, r_k3, times),
        _discounted_spread_weights(post_curve, lend, r_k3, times),
        _discounted_spread_weights(r_e, r_k3, r_k3, times),
    )


def price_exogenous(
    scenario: ScenarioSet,
    contract: Contract,
    coll_path: CollateralPath,
    spec: CollateralSpec,
) -> PriceReport:
    """Monte Carlo ex-dividend price at t=0 with a predetermined collateral path."""
    if scenario.measure_tag != "qe":
        raise ScenarioMeasureMismatch(
            f"pricing requires a martingale-measure scenario, got {scenario.measure_tag!r}"
        )
    if spec.endogenous:
        raise EndogenousSpecPassed("endogenous collateral must be priced with the BSDE solver")
    check_collateral_path(scenario, coll_path, spec)

    leg_contract = discounted_flows(scenario, contract)
    b_e = scenario.account(scenario.model.domestic)
    w_recv, w_post, w_fx = _collateral_leg_weights(scenario.model, spec, scenario.grid.times)
    c = coll_path.c[:, :-1]
    # C times the weight of its sign's leg, less the FX term: in place, one (n_paths, n_steps) buffer
    carry = np.where(c > 0, w_recv, w_post)
    carry *= c
    carry -= c * w_fx
    carry *= scenario.fx(spec.currency)[:, :-1]
    carry /= b_e[:-1]
    leg_coll = carry.sum(axis=1)

    _, se = sample_mean(leg_contract + leg_coll)
    leg_contractual = -float(np.mean(leg_contract))
    leg_collateral = -float(np.mean(leg_coll))
    return PriceReport(
        price=leg_contractual + leg_collateral,
        std_error=float(se),
        leg_contractual=leg_contractual,
        leg_collateral=leg_collateral,
        n_paths=scenario.n_paths,
        seed=scenario.seed,
        convention=f"{spec.form}/{spec.convention}",
        k2=contract.native_currency,
        k3=spec.currency,
    )
