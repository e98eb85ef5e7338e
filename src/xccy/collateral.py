"""Collateral amounts, margin interest, and convention-specific carry streams.

The hedger either receives collateral (C > 0) or posts it (C < 0), in cash or
in shares of a dedicated risky asset, under segregation or rehypothecation.
Each of the four combinations produces a carry stream of the form

    [ (r_recv - r_cb) C+  -  (r_post - r_cl) C- ] X dt  -  C dX

in domestic units, where r_cb / r_cl are the collateral borrow / lend rates
of the collateral currency and the received / posted funding roles are:

    ==================  ====================  ====================
    form, convention    received leg r_recv   posted leg r_post
    ==================  ====================  ====================
    cash, segregation   coll_reinvest_seg     cash_post_funding
    cash, rehypo        domestic unsecured    cash_post_funding
    risky, segregation  coll_reinvest_seg     coll_post_funding
    risky, rehypo       coll_reinvest_rehyp   coll_post_funding
    ==================  ====================  ====================

Segregation and rehypothecation cash streams therefore coincide exactly when
the segregated reinvestment rate equals the domestic unsecured rate, and the
risky and cash streams coincide when the two posting-funding roles carry the
same curve.

The bracket is C times a weight picked by the sign of C, r_recv - r_cb where
C > 0 and r_post - r_cl elsewhere, and every carry (here and in pricing) is
computed in that form, bit for bit the received-minus-posted one.

The stream here realizes the FX term as increments -C dX, with predictable
(left-endpoint) collateral and FX states, for the wealth replay. Pricing
integrates each leg, the FX term included, exactly over every step instead
(:func:`xccy.pricing._collateral_leg_weights`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .contracts import Contract
from .curves import RateCurve
from .errors import ConfigError, GridMismatch, NonPositiveFx, doc_value
from .model import ValidatedModel, collateralized_log_growth
from .simulation import ScenarioSet

FORMS = ("cash", "risky")
CONVENTIONS = ("segregation", "rehypothecation")


@dataclass(frozen=True)
class CollateralSpec:
    """Contractual collateral terms.

    ``delta1`` scales collateral above a positive mark, ``delta2`` below a
    negative one; both must exceed -1. ``mode`` is either
    ``("exogenous", functional_name, params)`` or ``("endogenous",)``; the
    exogenous functionals are listed in :data:`EXOGENOUS_FUNCTIONALS`.
    """

    currency: str
    form: str = "cash"
    convention: str = "rehypothecation"
    delta1: float = 0.0
    delta2: float = 0.0
    mode: tuple = ("exogenous", "constant", {"level": 0.0})
    posted_asset: str | None = None
    received_asset: str | None = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise ConfigError(f"form must be one of {FORMS}, got {self.form!r}")
        if self.convention not in CONVENTIONS:
            raise ConfigError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")
        if not (self.delta1 > -1 and self.delta2 > -1):
            raise ConfigError(f"haircuts must exceed -1, got {self.delta1}, {self.delta2}")
        if self.form == "risky" and (self.posted_asset is None or self.received_asset is None):
            raise ConfigError("risky collateral requires posted_asset and received_asset labels")

    @property
    def endogenous(self) -> bool:
        return self.mode[0] == "endogenous"

    @classmethod
    def from_dict(cls, doc: dict) -> "CollateralSpec":
        currency = doc_value(doc, "currency", "collateral")
        mode_doc = doc.get("mode", {"exogenous": {"functional": "constant", "params": {"level": 0.0}}})
        if mode_doc == "endogenous" or isinstance(mode_doc, dict) and "endogenous" in mode_doc:
            mode = ("endogenous",)
        else:
            exo = doc_value(mode_doc, "exogenous", "collateral.mode")
            params = doc_value(exo, "params", "collateral.mode.exogenous", dict, {})
            mode = ("exogenous", doc_value(exo, "functional", "collateral.mode.exogenous"), params)
        return cls(
            currency=currency,
            form=doc.get("form", "cash"),
            convention=doc.get("convention", "rehypothecation"),
            delta1=doc_value(doc, "delta1", "collateral", float, 0.0),
            delta2=doc_value(doc, "delta2", "collateral", float, 0.0),
            mode=mode,
            posted_asset=doc.get("posted_asset"),
            received_asset=doc.get("received_asset"),
        )


@dataclass(frozen=True)
class CollateralPath:
    """Collateral per path per grid time, in units of the collateral currency.

    The terminal condition C_T = 0 (collateral returned at the end of
    trading) is enforced at construction.
    """

    c: np.ndarray
    currency: str

    def __init__(self, c, currency):
        c = np.array(c, dtype=float)
        if c.ndim != 2:
            raise ConfigError("collateral path must be (n_paths, n_times)")
        c[:, -1] = 0.0
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "currency", currency)

    @property
    def received(self) -> np.ndarray:
        return np.maximum(self.c, 0.0)

    @property
    def posted(self) -> np.ndarray:
        return np.maximum(-self.c, 0.0)


def check_collateral_path(scenario: ScenarioSet, coll: CollateralPath, spec: CollateralSpec) -> None:
    """Raise :class:`ConfigError` unless ``coll`` is a collateral path of ``spec`` on ``scenario``.

    The path must be in the spec's currency and of shape (n_paths, n_times);
    risky collateral must post and receive assets quoted in that currency.
    """
    if coll.currency != spec.currency:
        raise ConfigError(f"collateral path currency {coll.currency!r} != spec currency {spec.currency!r}")
    shape = (scenario.n_paths, len(scenario.grid.times))
    if coll.c.shape != shape:
        raise GridMismatch(f"collateral path shape {coll.c.shape} != (n_paths, n_times) {shape}")
    if spec.form == "risky":
        for label in (spec.posted_asset, spec.received_asset):
            currency = scenario.model.asset(label).currency
            if currency != spec.currency:
                raise ConfigError(
                    f"collateral asset {label!r} is quoted in {currency!r}, not in the collateral currency "
                    f"{spec.currency!r}"
                )


def collateral_from_mark(mark, spec: CollateralSpec, fx_level) -> np.ndarray:
    """Collateral amount implied by a mark-to-market value in domestic units.

    X * C = (1 + delta1) * mark+ - (1 + delta2) * mark-.
    """
    fx_level = np.asarray(fx_level, dtype=float)
    if np.any(fx_level <= 0):
        raise NonPositiveFx("fx level must be strictly positive")
    mark = np.asarray(mark, dtype=float)
    return mark * np.where(mark > 0, 1.0 + spec.delta1, 1.0 + spec.delta2) / fx_level


def margin_interest(scenario: ScenarioSet, coll: CollateralPath, spec: CollateralSpec) -> np.ndarray:
    """Cumulative margin-account interest in domestic units, (n_paths, n_times).

    Interest received on posted collateral at the lend rate minus interest
    paid on received collateral at the borrow rate, both converted at the
    prevailing FX rate with predictable integrands.
    """
    check_collateral_path(scenario, coll, spec)
    model = scenario.model
    times = scenario.grid.times
    lend = model.curve(spec.currency, "collateral_lend").step_integrals(times)
    borrow = model.curve(spec.currency, "collateral_borrow").step_integrals(times)
    x = scenario.fx(spec.currency)[:, :-1]
    c = coll.c[:, :-1]
    inc = x * -(c * np.where(c > 0, borrow, lend))
    out = np.zeros((scenario.n_paths, len(times)))
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def carry_curves(model: ValidatedModel, spec: CollateralSpec) -> tuple[RateCurve, RateCurve]:
    """The (received-leg, posted-leg) funding curves of the module table.

    Received cash under rehypothecation funds the trading book and therefore
    carries the domestic unsecured rate; every other leg is a collateral-currency role.
    """
    if spec.form == "cash" and spec.convention == "rehypothecation":
        recv = model.curve(model.domestic, "unsecured")
    else:
        rehyp = spec.form == "risky" and spec.convention == "rehypothecation"
        recv = model.curve(spec.currency, "coll_reinvest_rehyp" if rehyp else "coll_reinvest_seg")
    post = "cash_post_funding" if spec.form == "cash" else "coll_post_funding"
    return recv, model.curve(spec.currency, post)


def warn_correlated_collateral_asset(model: ValidatedModel, label: str) -> None:
    """Warn when a collateral asset is correlated with any other driver."""
    i = model.driver_labels.index(label)
    row = np.delete(model.correlation.matrix[i], i)
    if np.any(np.abs(row) > 1e-12):
        warnings.warn(
            f"collateral asset {label!r} is correlated with the trading portfolio "
            f"(max |rho| = {np.max(np.abs(row)):.3f})",
            stacklevel=2,
        )


def adjustment_increments(scenario: ScenarioSet, coll: CollateralPath, spec: CollateralSpec) -> np.ndarray:
    """Per-step increments of the collateral carry stream, (n_paths, n_steps).

    The FX term -C dX is realized with the same-interval FX increment.
    """
    check_collateral_path(scenario, coll, spec)
    model = scenario.model
    times = scenario.grid.times
    if spec.form == "risky":
        for label in (spec.posted_asset, spec.received_asset):
            warn_correlated_collateral_asset(model, label)

    borrow = model.curve(spec.currency, "collateral_borrow").step_integrals(times)
    lend = model.curve(spec.currency, "collateral_lend").step_integrals(times)
    recv_int, post_int = (curve.step_integrals(times) for curve in carry_curves(model, spec))

    x = scenario.fx(spec.currency)
    c = coll.c[:, :-1]
    carry = x[:, :-1] * (c * np.where(c > 0, recv_int - borrow, post_int - lend))
    return carry - c * np.diff(x, axis=1)


def adjustment_stream(scenario: ScenarioSet, coll: CollateralPath, spec: CollateralSpec) -> np.ndarray:
    """Cumulative collateral carry stream in domestic units, (n_paths, n_times)."""
    inc = adjustment_increments(scenario, coll, spec)
    out = np.zeros((scenario.n_paths, len(scenario.grid.times)))
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def collateral_value_adjustment(
    scenario: ScenarioSet, coll: CollateralPath, spec: CollateralSpec
) -> np.ndarray:
    """Difference between the hedger's legal wealth and portfolio value.

    X * C- under segregation and for risky collateral, -X * C for cash under
    rehypothecation (received cash funds the book, so the portfolio holds it).
    """
    x = scenario.fx(spec.currency)
    if spec.form == "cash" and spec.convention == "rehypothecation":
        return -x * coll.c
    return x * coll.posted


# ---------------------------------------------------------------------------
# Exogenous collateral functionals: measurable functions of current grid state
# ---------------------------------------------------------------------------


def _constant_functional(scenario: ScenarioSet, spec: CollateralSpec, contract, params) -> CollateralPath:
    level = doc_value(params, "level", "collateral.mode.exogenous.params", float, 0.0)
    c = np.full((scenario.n_paths, len(scenario.grid.times)), level)
    return CollateralPath(c, spec.currency)


def _fraction_of_asset(scenario: ScenarioSet, spec: CollateralSpec, contract, params) -> CollateralPath:
    label = doc_value(params, "asset", "collateral.mode.exogenous.params")
    fraction = doc_value(params, "fraction", "collateral.mode.exogenous.params", float, 1.0)
    asset = scenario.model.asset(label)
    value_dom = scenario.asset(label) * scenario.fx(asset.currency)
    c = fraction * value_dom / scenario.fx(spec.currency)
    return CollateralPath(c, spec.currency)


def _mark_proxy(scenario: ScenarioSet, spec: CollateralSpec, contract: Contract, params) -> CollateralPath:
    """Haircut collateral on a deterministic-forward proxy of the contract mark.

    The proxy marks the remaining flows at the perfect-collateralization
    discount (collateral rate plus cross-currency basis) and the FX forward
    implied by unsecured differentials; the mark is the contract value to the
    counterparty, i.e. minus the hedger's replication wealth. With G from
    :func:`~xccy.model.collateralized_log_growth`, it is one
    (n_times, n_flows) matrix a_i exp(G(t_i) - G(t)), zero where t_i <= t,
    summed over the flows. G is evaluated at the flow dates themselves, so
    they need not be grid nodes.
    """
    if contract is None:
        raise ConfigError("mark_proxy functional needs the contract")
    times = scenario.grid.times
    flow_t = np.array(contract.flow_times)
    n = len(times)
    g = collateralized_log_growth(
        scenario.model, contract.native_currency, spec.currency, np.concatenate([times, flow_t])
    )
    growth = np.where(flow_t[None, :] > times[:, None], np.exp(g[None, n:] - g[:n, None]), 0.0)
    # hedger's replication wealth is -factor * X_k2, and the mark is its negative
    factor = (growth * [a for _, a in contract.flows]).sum(axis=1)
    mark = factor * scenario.fx(contract.native_currency)
    c = collateral_from_mark(mark, spec, scenario.fx(spec.currency))
    return CollateralPath(c, spec.currency)


EXOGENOUS_FUNCTIONALS = {
    "constant": _constant_functional,
    "fraction_of_asset": _fraction_of_asset,
    "mark_proxy": _mark_proxy,
}


def build_exogenous_path(
    scenario: ScenarioSet, spec: CollateralSpec, contract: Contract | None = None
) -> CollateralPath:
    """Materialize the exogenous collateral path named by the spec's mode."""
    if spec.endogenous:
        raise ConfigError("spec is endogenous; use the BSDE solver")
    _, name, params = spec.mode
    if name not in EXOGENOUS_FUNCTIONALS:
        raise ConfigError(f"unknown exogenous functional {name!r}; known: {sorted(EXOGENOUS_FUNCTIONALS)}")
    return EXOGENOUS_FUNCTIONALS[name](scenario, spec, contract, params)
