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

An exogenous functional is a measurable function of the state at each date,
so each is one pointwise definition over a block of time rows
(:class:`TimeRows`, :data:`EXOGENOUS_FUNCTIONALS`). :func:`build_exogenous_path`
checks its inputs and returns a lazy :class:`CollateralPath` that holds its
functional and scenario: the price builds it tile by tile in its pass over
the chunks and stores no path, and reading its ``c`` builds it over the
whole grid, one block, from the scenario's store: a scenario is streamed, or
stored whole on first read, every driver at once.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .contracts import Contract
from .curves import RateCurve
from .errors import ConfigError, GridMismatch, NonPositiveFx, doc_value, finite_float, json_float, json_str
from .model import ValidatedModel, collateralized_value, fx_label
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
        currency = doc_value(doc, "currency", "collateral", json_str)
        mode_doc = doc.get("mode", {"exogenous": {"functional": "constant", "params": {"level": 0.0}}})
        if mode_doc == "endogenous" or isinstance(mode_doc, dict) and "endogenous" in mode_doc:
            mode = ("endogenous",)
        else:
            exo = doc_value(mode_doc, "exogenous", "collateral.mode")
            params = doc_value(exo, "params", "collateral.mode.exogenous", dict, {})
            mode = ("exogenous", doc_value(exo, "functional", "collateral.mode.exogenous", json_str), params)
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


class _BuiltPath:
    """The ``c`` field of :class:`CollateralPath`: set as given, or built the first time a lazy path's is read.

    A lazy path (:func:`build_exogenous_path`) holds its functional's inputs
    instead of an array; reading ``c`` takes the functional's drivers from
    the scenario's store, which is stored whole on first read
    (:meth:`~xccy.simulation.ScenarioSet.load`), and builds the path over the
    whole grid, one block of time rows (``CollateralPath.at``).
    """

    def __get__(self, path, owner=None):
        if path is None:
            raise AttributeError("c")  # a dataclass field without a default
        if "_c" not in path.__dict__:
            scenario, spec, contract = path.source
            levels = {label: scenario.driver(label).T for label in path.drivers}
            rows = TimeRows(scenario.model, slice(0, len(scenario.grid.times)), levels, scenario.n_paths)
            path._hold(path.at(rows).T, spec.currency)
        return path.__dict__["_c"]

    def __set__(self, path, c):
        path.__dict__["_c"] = c


@dataclass(frozen=True, eq=False, repr=False)  # comparing or printing c would build a lazy path
class CollateralPath:
    """Collateral per path per grid time, in units of the collateral currency.

    Held time-major, like :class:`~xccy.simulation.ScenarioSet`'s paths: ``c``
    is the (n_paths, n_times) view of one C-ordered (n_times, n_paths) array,
    so ``c.T`` walks contiguous time rows. The constructor copies its input
    into that layout and every exogenous builder allocates in it. The
    terminal condition C_T = 0 (collateral returned at the end of trading) is
    enforced when the array is held. A path of :func:`build_exogenous_path`
    is lazy: it holds its ``source`` (scenario, spec, contract), builds its
    collateral at any block of time rows (``at``), and builds ``c`` only
    when it is read; :func:`~xccy.pricing.price_exogenous` builds it tile by
    tile and never reads ``c``.
    """

    c: np.ndarray = _BuiltPath()
    currency: str
    source: tuple | None = None
    # a lazy path's collateral at the nodes of a TimeRows block, a fresh (n_nodes, n_paths) C-ordered array of
    # time rows that the caller may overwrite: its functional is pointwise in time, so a node has the same bits
    # in any block that holds it
    at: Callable[["TimeRows"], np.ndarray] | None = None

    def __init__(self, c, currency):
        self._hold(np.array(c, dtype=float, order="F"), currency)

    @classmethod
    def _lazy(cls, at, source: tuple) -> "CollateralPath":
        """The lazy path of ``source`` (scenario, spec, contract), whose collateral at a block of rows is ``at(rows)``."""
        path = cls.__new__(cls)
        object.__setattr__(path, "currency", source[1].currency)
        object.__setattr__(path, "source", source)
        object.__setattr__(path, "at", at)
        return path

    def _hold(self, c: np.ndarray, currency: str) -> None:
        if c.ndim != 2:
            raise ConfigError("collateral path must be (n_paths, n_times)")
        c[:, -1] = 0.0
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "currency", currency)

    @property
    def built(self) -> bool:
        """Whether ``c`` is held: a path built from an array, or a lazy one whose ``c`` was read."""
        return "_c" in self.__dict__

    @property
    def shape(self) -> tuple[int, int]:
        """(n_paths, n_times), read without building a lazy path."""
        if self.built:
            return self.c.shape
        scenario = self.source[0]
        return scenario.n_paths, len(scenario.grid.times)

    @property
    def drivers(self) -> list[str]:
        """The drivers a lazy path's functional reads (:func:`priced_drivers`)."""
        scenario, spec, contract = self.source
        return priced_drivers(scenario.model, spec, contract)

    @property
    def received(self) -> np.ndarray:
        return np.maximum(self.c, 0.0)

    @property
    def posted(self) -> np.ndarray:
        return np.maximum(-self.c, 0.0)


@dataclass(frozen=True)
class TimeRows:
    """A scenario's state at a block of consecutive grid nodes: what an exogenous functional reads.

    ``nodes`` is the slice of grid nodes and ``levels`` maps the label of
    each driver the functional reads to its (n_nodes, n_paths) time rows. The
    whole grid is one such block (a lazy path's ``c``), and a price reads one
    per time tile (:meth:`~xccy.simulation.ScenarioSet.map_tiles`).
    """

    model: ValidatedModel
    nodes: slice
    levels: dict
    n_paths: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.nodes.stop - self.nodes.start, self.n_paths

    def fx(self, currency: str) -> np.ndarray | None:
        """The FX rows of ``currency``; ``None`` for the domestic currency, whose rate is identically 1.

        As :meth:`~xccy.simulation.ScenarioSet.fx_factor`, a reader skips
        the product or quotient it would take with it: x * 1.0 and x / 1.0
        are x bit for bit.
        """
        return None if currency == self.model.domestic else self.levels[fx_label(currency)]

    def asset(self, label: str) -> np.ndarray:
        return self.levels[label]


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
    and the scenario's model must pass :func:`check_collateral_spec`. A lazy
    path is not built.
    """
    if coll.currency != spec.currency:
        raise ConfigError(f"collateral path currency {coll.currency!r} != spec currency {spec.currency!r}")
    shape = (scenario.n_paths, len(scenario.grid.times))
    if coll.shape != shape:
        raise GridMismatch(f"collateral path shape {coll.shape} != (n_paths, n_times) {shape}")
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


def _constant_functional(model: ValidatedModel, times, spec: CollateralSpec, contract, level):
    return lambda rows: np.full(rows.shape, level)


def _fraction_of_asset(model: ValidatedModel, times, spec: CollateralSpec, contract, asset, fraction):
    asset_currency = model.asset(asset).currency

    def build(rows: TimeRows) -> np.ndarray:
        s, x = rows.asset(asset), rows.fx(asset_currency)
        c = np.array(s) if x is None else s * x  # the asset's domestic value
        c *= fraction  # x * fraction is fraction * x, bit for bit
        x = rows.fx(spec.currency)
        if x is not None:
            c /= x
        return c

    return build


def _mark_proxy(model: ValidatedModel, times, spec: CollateralSpec, contract: Contract):
    """Haircut collateral on a deterministic-forward proxy of the contract mark.

    The proxy marks the remaining flows at the perfect-collateralization
    discount (collateral rate plus cross-currency basis) and the FX forward
    implied by unsecured differentials, the closed form of
    :func:`~xccy.pricing.price_fully_collateralized` at every grid date: the
    mark is :func:`~xccy.model.collateralized_value` at t times X_k2(t), the
    contract value to the counterparty, i.e. minus the hedger's replication
    wealth. The value is computed once on the grid and read at each block's nodes.
    """
    if contract is None:
        raise ConfigError("mark_proxy functional needs the contract")
    value = collateralized_value(model, contract, spec.currency, times)[:, None]

    def build(rows: TimeRows) -> np.ndarray:
        x = rows.fx(contract.native_currency)
        c = np.empty(rows.shape)
        np.multiply(value[rows.nodes], 1.0 if x is None else x, out=c)  # the mark
        _apply_haircut(c, spec, rows.fx(spec.currency))
        return c

    return build


# name -> (functional, {parameter: (doc_value conversion, default, ... if required)}). A functional
# takes (model, grid times, spec, contract) and the parameters CollateralSpec converted by this table,
# checks them, computes what it reads of the grid alone, and returns its builder: a function of the
# TimeRows of a block of nodes that returns the collateral there, a fresh C-ordered (n_nodes, n_paths)
# float array of time rows, its only allocation of that size. The array is the caller's: the price pass
# hands it to the collateral legs, which may overwrite it (pricing._add_collateral_legs)
EXOGENOUS_FUNCTIONALS = {
    "constant": (_constant_functional, {"level": (finite_float, 0.0)}),
    "fraction_of_asset": (_fraction_of_asset, {"asset": (None, ...), "fraction": (finite_float, 1.0)}),
    "mark_proxy": (_mark_proxy, {}),
}


def priced_drivers(model: ValidatedModel, spec: CollateralSpec, contract: Contract | None) -> list[str]:
    """The drivers an exogenous price of ``contract`` reads: the FX rates of its currency and of the
    collateral's, and the functional's asset with its currency's FX rate.

    :func:`~xccy.pricing.price_exogenous` streams these in its one pass, and
    a lazy path's ``c`` reads them from the store. The domestic FX rate is
    identically one and is no driver.
    """
    currencies = [spec.currency] + ([] if contract is None else [contract.native_currency])
    asset = None if spec.endogenous else spec.mode[2].get("asset")
    if asset is None:
        return model.fx_drivers(*currencies)
    return [asset, *model.fx_drivers(*currencies, model.asset(asset).currency)]


def build_exogenous_path(
    scenario: ScenarioSet, spec: CollateralSpec, contract: Contract | None = None
) -> CollateralPath:
    """The exogenous collateral path named by the spec's mode: a lazy :class:`CollateralPath`.

    Its inputs are checked at once: an endogenous spec, a ``mark_proxy``
    without the contract, or a driver the model lacks raise
    :class:`ConfigError`. No driver is simulated and no array allocated
    here; :func:`~xccy.pricing.price_exogenous` builds the path tile by tile
    in its pass over the chunks, and reading ``c`` builds it whole.
    """
    if spec.endogenous:
        raise ConfigError("spec is endogenous; use the BSDE solver")
    for label in priced_drivers(scenario.model, spec, contract):
        scenario.model.driver_spec(label)  # ConfigError for a driver the model lacks
    _, name, params = spec.mode
    build = EXOGENOUS_FUNCTIONALS[name][0](scenario.model, scenario.grid.times, spec, contract, **params)
    return CollateralPath._lazy(build, (scenario, spec, contract))
