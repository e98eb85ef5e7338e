"""Ex-dividend prices of collateralized contracts at inception.

Two routes:

* ``price_exogenous``: Monte Carlo expectation of minus the discounted total
  stream (contract flows plus the convention-specific collateral carry, with
  the FX exposure replaced by its drift-equivalent form). It is the plain
  sample mean with no control variate, so it stays an independent check of
  the closed form.
* ``price_fully_collateralized``: closed form for perfectly collateralized
  claims: flows discounted at the domestic collateral rate plus the
  cross-currency basis of the collateral currency, with foreign flows at the
  unsecured-differential FX forward.

Sign convention: a positive price is received by the hedger at inception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collateral import CollateralPath, CollateralSpec, carry_curves
from .contracts import Contract
from .curves import step_pieces
from .errors import (
    AsymmetricCollateralRates,
    ConfigError,
    EndogenousSpecPassed,
    ScenarioMeasureMismatch,
)
from .model import ValidatedModel, cross_currency_basis_of
from .simulation import ScenarioSet
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
        return {
            "price": self.price,
            "std_error": self.std_error,
            "leg_contractual": self.leg_contractual,
            "leg_collateral": self.leg_collateral,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "convention": self.convention,
            "k2": self.k2,
            "k3": self.k3,
        }


def collateralized_log_growth(model: ValidatedModel, k2: str, k3: str, times) -> np.ndarray:
    """G(t), the integral over [0, t] of -(rc_dom + q_k3) + (r_dom - r_k2), at each entry of ``times``.

    One unit of k2 paid at T and fully collateralized in k3 is worth
    exp(G(T) - G(t)) X_k2(t) at t: discounted at the domestic collateral rate
    plus the cross-currency basis of k3 and converted at the FX forward of the
    unsecured differential. The basis term drops for domestic k3 and the
    forward term for domestic k2.
    """
    e = model.domestic
    g = -model.curve(e, "collateral_lend").integrals(times) - cross_currency_basis_of(
        model, k3, lambda curve: curve.integrals(times)
    )
    if k2 != e:
        g = g + (model.curve(e, "unsecured").integrals(times) - model.curve(k2, "unsecured").integrals(times))
    return g


def _require_symmetric(model: ValidatedModel, currency: str) -> None:
    if not model.has_symmetric_collateral_rates(currency):
        raise AsymmetricCollateralRates(
            f"closed-form pricing needs collateral borrow == lend for {currency!r}"
        )


def price_fully_collateralized(
    model: ValidatedModel, contract: Contract, k3: str, t: float = 0.0
) -> float:
    """Exact price of the contract under continuous full collateralization in k3.

    Requires symmetric collateral rates (borrow == lend) for the domestic and
    collateral currencies; deterministic rates make the result free of Monte
    Carlo error.
    """
    if t != 0.0:
        raise ConfigError("closed-form pricing is exposed at t=0 only")
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

    leg_contract = discounted_flows(scenario, contract, from_t=0.0)
    b_e = scenario.account(scenario.model.domestic)
    w_recv, w_post, w_fx = _collateral_leg_weights(scenario.model, spec, scenario.grid.times)
    x_l = scenario.fx(spec.currency)[:, :-1]
    carry = (
        coll_path.received[:, :-1] * w_recv[None, :]
        - coll_path.posted[:, :-1] * w_post[None, :]
        - coll_path.c[:, :-1] * w_fx[None, :]
    )
    leg_coll = (carry * x_l / b_e[None, :-1]).sum(axis=1)

    total = leg_contract + leg_coll
    n = scenario.n_paths
    se = float(np.std(total, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    leg_contractual = -float(np.mean(leg_contract))
    leg_collateral = -float(np.mean(leg_coll))
    return PriceReport(
        price=leg_contractual + leg_collateral,
        std_error=se,
        leg_contractual=leg_contractual,
        leg_collateral=leg_collateral,
        n_paths=n,
        seed=scenario.seed,
        convention=f"{spec.form}/{spec.convention}",
        k2=contract.native_currency,
        k3=spec.currency,
    )
