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
(:func:`xccy.pricing._carry_leg_weights`, :func:`xccy.pricing._fx_leg_weight`).

Collateral in the domestic currency has X identically 1: the haircut of a
mark skips the positivity scan of X and the division by it, and skips its
factor when both haircuts are 0 (:func:`_apply_haircut`). x * 1.0 and
x / 1.0 are x, so the paths keep their bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contracts import Contract
from .curves import RateCurve
from .errors import ConfigError, GridMismatch, NonPositiveFx, doc_value, finite_float, json_float
from .model import ValidatedModel, collateralized_value
from .simulation import ScenarioSet, block_tiles

FORMS = ("cash", "risky")
CONVENTIONS = ("segregation", "rehypothecation")


@dataclass(frozen=True)
class CollateralSpec:
    """Contractual collateral terms.

    ``delta1`` scales collateral above a positive mark, ``delta2`` below a
    negative one; both must be finite and exceed -1. ``mode`` is either
    ``("exogenous", functional_name, params)`` or ``("endogenous",)``; the
    exogenous functionals and their parameters are listed in
    :data:`EXOGENOUS_FUNCTIONALS`. The name and the parameter keys are checked
    and the parameters converted when the spec is built, so a bad one raises
    :class:`ConfigError` naming its field before anything is simulated (a
    misspelt key would otherwise fall back to its default); ``mode`` then
    holds the converted parameters, defaults filled in.
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
        check_haircuts(self.delta1, self.delta2)
        if self.form == "risky" and (self.posted_asset is None or self.received_asset is None):
            raise ConfigError("risky collateral requires posted_asset and received_asset labels")
        if not self.endogenous:
            _, name, params = self.mode
            if name not in EXOGENOUS_FUNCTIONALS:
                raise ConfigError(
                    f"collateral.mode.exogenous.functional: unknown exogenous functional {name!r}; "
                    f"known: {sorted(EXOGENOUS_FUNCTIONALS)}"
                )
            where, known = "collateral.mode.exogenous.params", EXOGENOUS_FUNCTIONALS[name][1]
            unknown = sorted(set(params) - set(known)) if isinstance(params, dict) else []
            if unknown:
                raise ConfigError(
                    f"{where}.{unknown[0]}: unknown parameter of {name!r}; known: {sorted(known)}"
                )
            params = {key: doc_value(params, key, where, kind, default) for key, (kind, default) in known.items()}
            object.__setattr__(self, "mode", ("exogenous", name, params))

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
            delta1=doc_value(doc, "delta1", "collateral", json_float, 0.0),
            delta2=doc_value(doc, "delta2", "collateral", json_float, 0.0),
            mode=mode,
            posted_asset=doc.get("posted_asset"),
            received_asset=doc.get("received_asset"),
        )


@dataclass(frozen=True)
class CollateralPath:
    """Collateral per path per grid time, in units of the collateral currency.

    Held time-major, like :class:`~xccy.simulation.ScenarioSet`'s paths: ``c``
    is the (n_paths, n_times) view of one C-ordered (n_times, n_paths) array,
    so ``c.T`` walks contiguous time rows. The constructor copies its input
    into that layout and every exogenous builder allocates in it. The
    terminal condition C_T = 0 (collateral returned at the end of trading) is
    enforced at construction.
    """

    c: np.ndarray
    currency: str

    def __init__(self, c, currency):
        self._hold(np.array(c, dtype=float, order="F"), currency)

    @classmethod
    def _holding(cls, c: np.ndarray, currency: str) -> "CollateralPath":
        """The path holding the F-ordered float array ``c`` itself, not a copy: for a fresh array no one else holds."""
        path = cls.__new__(cls)
        path._hold(c, currency)
        return path

    def _hold(self, c: np.ndarray, currency: str) -> None:
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


def check_haircuts(delta1: float, delta2: float) -> None:
    """Raise :class:`ConfigError` naming the haircut unless each is finite and exceeds -1."""
    for name, delta in (("delta1", delta1), ("delta2", delta2)):
        if not -1 < delta < math.inf:
            raise ConfigError(f"collateral.{name} must be finite and exceed -1, got {delta}")


def check_collateral_spec(model: ValidatedModel, spec: CollateralSpec) -> None:
    """Raise :class:`ConfigError` unless ``model`` has what ``spec`` names.

    The collateral currency must be one of the model's, every asset the spec
    names must be one of its assets, and risky collateral must post and
    receive assets quoted in the collateral currency; each error names its
    field. It needs no paths, so the CLI runs it before simulating.
    """
    model.curve_set(spec.currency)  # UnknownCurrency for a currency the model lacks

    def asset(field: str, label):
        try:
            return model.asset(label)
        except ConfigError as exc:
            raise ConfigError(f"{field}: {exc}") from exc

    if not spec.endogenous and "asset" in spec.mode[2]:
        asset("collateral.mode.exogenous.params.asset", spec.mode[2]["asset"])
    if spec.form == "risky":
        for side in ("posted_asset", "received_asset"):
            label = getattr(spec, side)
            currency = asset(f"collateral.{side}", label).currency
            if currency != spec.currency:
                raise ConfigError(
                    f"collateral.{side}: asset {label!r} is quoted in {currency!r}, not in the collateral "
                    f"currency {spec.currency!r}"
                )


def check_collateral_path(scenario: ScenarioSet, coll: CollateralPath, spec: CollateralSpec) -> None:
    """Raise :class:`ConfigError` unless ``coll`` is a collateral path of ``spec`` on ``scenario``.

    The path must be in the spec's currency and of shape (n_paths, n_times),
    and the scenario's model must pass :func:`check_collateral_spec`.
    """
    if coll.currency != spec.currency:
        raise ConfigError(f"collateral path currency {coll.currency!r} != spec currency {spec.currency!r}")
    shape = (scenario.n_paths, len(scenario.grid.times))
    if coll.c.shape != shape:
        raise GridMismatch(f"collateral path shape {coll.c.shape} != (n_paths, n_times) {shape}")
    check_collateral_spec(scenario.model, spec)


# an overflowing mark gives a non-finite collateral, which the price's check_finite_estimate reports
@np.errstate(over="ignore", invalid="ignore")
def _apply_haircut(c: np.ndarray, spec: CollateralSpec, fx_level) -> None:
    """Turn the marks ``c`` into collateral in place: c * (1 + delta) / fx_level.

    The one definition of the haircut rule: delta is ``delta1`` where the
    mark is > 0 and ``delta2`` elsewhere. ``c`` is a C-contiguous float array
    of one or more dimensions that ``fx_level`` broadcasts to (a path
    builder passes the time rows ``c.T``); it is worked through in
    :func:`~xccy.simulation.block_tiles` of its first and last axes, so each
    tile is one block of whole rows, or one column slice of a row too wide
    for a tile, and the only temporaries are one tile's factors. Raises
    :class:`NonPositiveFx`, leaving ``c`` as it was, unless every fx level is
    > 0 (NaN is not). An ``fx_level`` of ``None`` is the domestic level, 1
    (:meth:`~xccy.simulation.ScenarioSet.fx_factor`): it is neither scanned
    nor divided by. With ``delta1 == delta2`` the factor is one scalar,
    multiplied without ``np.where``, and not at all when it is 1. Each skip
    leaves every bit as the general rule does, since x * 1.0 and x / 1.0 are
    x for every x, signed zeros, infinities and NaN included.
    """
    if fx_level is not None and not np.min(fx_level, initial=math.inf) > 0:
        raise NonPositiveFx("fx level must be strictly positive")
    up, down = 1.0 + spec.delta1, 1.0 + spec.delta2
    if fx_level is None and up == down == 1.0:
        return
    fx = None if fx_level is None else np.broadcast_to(fx_level, c.shape)
    if c.ndim == 1:  # one element per row: a column axis to tile
        c, fx = c[:, None], None if fx is None else fx[:, None]
    for rows, cols in block_tiles(len(c), c.shape[-1], c[:1].nbytes):
        block = c[rows, ..., cols]
        if up != down:
            block *= np.where(block > 0, up, down)
        elif up != 1.0:
            block *= up
        if fx is not None:
            block /= fx[rows, ..., cols]


def collateral_from_mark(mark, spec: CollateralSpec, fx_level) -> np.ndarray:
    """Collateral amount implied by a mark-to-market value in domestic units.

    X * C = (1 + delta1) * mark+ - (1 + delta2) * mark-. The result is a new
    array of the broadcast shape of ``mark`` and ``fx_level`` (a scalar when
    both are): one copy of ``mark``, haircut and divided in place. Neither
    input is modified. Raises :class:`NonPositiveFx` unless every fx level is
    > 0; a NaN level is not.
    """
    fx_level = np.asarray(fx_level, dtype=float)
    mark = np.asarray(mark, dtype=float)
    c = np.array(np.broadcast_to(mark, np.broadcast_shapes(mark.shape, fx_level.shape)), order="C")
    _apply_haircut(np.atleast_1d(c), spec, fx_level)
    return c if c.ndim else c[()]


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


def _constant_functional(scenario: ScenarioSet, spec: CollateralSpec, contract, level) -> np.ndarray:
    return np.full((scenario.n_paths, len(scenario.grid.times)), level, order="F")


def _fraction_of_asset(scenario: ScenarioSet, spec: CollateralSpec, contract, asset, fraction) -> np.ndarray:
    # the asset's domestic value
    c = np.multiply(scenario.asset(asset), scenario.fx(scenario.model.asset(asset).currency), order="F")
    c *= fraction  # x * fraction is fraction * x, bit for bit
    c /= scenario.fx(spec.currency)
    return c


def _mark_proxy(scenario: ScenarioSet, spec: CollateralSpec, contract: Contract) -> np.ndarray:
    """Haircut collateral on a deterministic-forward proxy of the contract mark.

    The proxy marks the remaining flows at the perfect-collateralization
    discount (collateral rate plus cross-currency basis) and the FX forward
    implied by unsecured differentials, the closed form of
    :func:`~xccy.pricing.price_fully_collateralized` at every grid date: the
    mark is :func:`~xccy.model.collateralized_value` at t times X_k2(t), the
    contract value to the counterparty, i.e. minus the hedger's replication wealth.
    """
    if contract is None:
        raise ConfigError("mark_proxy functional needs the contract")
    value = collateralized_value(scenario.model, contract, spec.currency, scenario.grid.times)
    c = np.multiply(value, scenario.fx(contract.native_currency), order="F")  # the mark
    x = scenario.fx_factor(spec.currency)
    _apply_haircut(c.T, spec, None if x is None else x.T)
    return c


# name -> (builder, {parameter: (doc_value conversion, default, ... if required)}); a builder
# takes (scenario, spec, contract) and the parameters CollateralSpec converted by this table,
# and returns a fresh F-ordered (n_paths, n_times) float array, the path's only full-size allocation
EXOGENOUS_FUNCTIONALS = {
    "constant": (_constant_functional, {"level": (finite_float, 0.0)}),
    "fraction_of_asset": (_fraction_of_asset, {"asset": (None, ...), "fraction": (finite_float, 1.0)}),
    "mark_proxy": (_mark_proxy, {}),
}


def priced_drivers(model: ValidatedModel, spec: CollateralSpec, contract: Contract | None) -> list[str]:
    """The drivers an exogenous price of ``contract`` reads: the FX rates of its currency and of the
    collateral's, and the functional's asset with its currency's FX rate.

    :func:`build_exogenous_path` and :func:`~xccy.pricing.price_exogenous`
    both load these, so the two simulate them in one pass. The domestic FX
    rate is identically one and is no driver.
    """
    currencies = [spec.currency] + ([] if contract is None else [contract.native_currency])
    asset = None if spec.endogenous else spec.mode[2].get("asset")
    if asset is None:
        return model.fx_drivers(*currencies)
    return [asset, *model.fx_drivers(*currencies, model.asset(asset).currency)]


def build_exogenous_path(
    scenario: ScenarioSet, spec: CollateralSpec, contract: Contract | None = None
) -> CollateralPath:
    """Materialize the exogenous collateral path named by the spec's mode."""
    if spec.endogenous:
        raise ConfigError("spec is endogenous; use the BSDE solver")
    scenario.load(*priced_drivers(scenario.model, spec, contract))
    _, name, params = spec.mode
    build = EXOGENOUS_FUNCTIONALS[name][0]
    return CollateralPath._holding(build(scenario, spec, contract, **params), spec.currency)
