"""Market model: currencies, curves, assets, FX pairs, correlation.

The model is quoted from the point of view of one domestic currency. FX rates
are stored domestic-per-foreign for every non-domestic currency; cross pairs
are derived by triangulation, which rules out triangular FX arbitrage by
construction.

``validate_model`` seals a raw :class:`MarketModel` into an immutable
:class:`ValidatedModel` after checking boundedness, positivity and positive
semi-definiteness of the correlation matrix. Everything downstream (simulation,
pricing, diagnostics) takes a ``ValidatedModel``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .contracts import Contract
from .curves import RATE_BOUND, VOL_BOUND, CurveSet, RateCurve
from .errors import (
    AsymmetricCollateralRates,
    ConfigError,
    DomesticPairRequested,
    ModelValidationError,
    UnknownCurrency,
    Violation,
    doc_value,
    json_bool,
    json_float,
    json_numbers,
    json_str,
    json_strings,
)

PSD_TOL = -1e-10  # smallest eigenvalue accepted before clipping to 0
# smallest pivot of the mixing factor's recursion (:func:`_cholesky`): a pivot p passes
# rounding of about eps / p to the pivots after it, which must stay within PSD_TOL
PIVOT_FLOOR = np.finfo(float).eps / -PSD_TOL


@dataclass(frozen=True)
class Currency:
    """One currency area; the domestic one quotes every FX rate."""

    name: str
    domestic: bool


@dataclass(frozen=True)
class AssetSpec:
    """Lognormal risky asset with a continuous dividend yield and a repo curve."""

    label: str
    currency: str
    s0: float
    sigma: float
    dividend_yield: RateCurve
    repo_rate: RateCurve


@dataclass(frozen=True)
class FxSpec:
    """Spot FX rate, quoted as units of domestic per 1 unit of ``foreign``."""

    foreign: str
    x0: float
    sigma: float


@dataclass(frozen=True)
class CorrelationMatrix:
    """Instantaneous correlation of all simulated drivers.

    ``labels`` fixes the driver order: assets carry their own label, FX
    drivers are labelled ``"fx:<currency>"``.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __init__(self, labels, matrix):
        labels = tuple(labels)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.size == len(labels) ** 2:
            matrix = matrix.reshape(len(labels), len(labels))  # accept flat row-major
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, labels) -> "CorrelationMatrix":
        return cls(tuple(labels), np.eye(len(tuple(labels))))


def fx_label(currency: str) -> str:
    return f"fx:{currency}"


@dataclass
class MarketModel:
    """Raw model as ingested from configuration; validate before use."""

    currencies: list[Currency]
    rates: dict[str, CurveSet]  # keyed by currency name
    assets: list[AssetSpec]
    fx: list[FxSpec]
    correlation: CorrelationMatrix


def _check_rate_bounds(name: str, curve: RateCurve | None, violations: list[Violation]) -> None:
    if curve is None:
        return
    if not curve.max_abs() <= RATE_BOUND:  # NaN compares false: it is rejected too
        violations.append(
            Violation("UnboundedRate", name, f"|rate| must be at most {RATE_BOUND}: max {curve.max_abs()}")
        )


def _validate(model: MarketModel) -> list[Violation]:
    v: list[Violation] = []
    names = [c.name for c in model.currencies]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        v.append(Violation("DuplicateCurrency", "currencies", f"duplicated: {dupes}"))
    domestic = [c for c in model.currencies if c.domestic]
    if len(domestic) != 1:
        v.append(
            Violation(
                "DomesticCount", "currencies", f"exactly one domestic currency required, got {len(domestic)}"
            )
        )

    for cur in model.currencies:
        if cur.name not in model.rates:
            v.append(Violation("MissingRates", f"rates[{cur.name}]", "no curve set for currency"))
            continue
        cs = model.rates[cur.name]
        for role in CurveSet.ROLES:
            _check_rate_bounds(f"rates[{cur.name}].{role}", getattr(cs, role), v)

    for a in model.assets:
        if a.currency not in names:
            v.append(Violation("UnknownCurrency", f"assets[{a.label}].currency", a.currency))
        if not 0 < a.sigma <= VOL_BOUND:
            v.append(
                Violation("NegativeVolatility", f"assets[{a.label}].sigma", f"sigma {a.sigma} not in (0, {VOL_BOUND}]")
            )
        if not 0 < a.s0 < math.inf:
            v.append(Violation("NonPositiveSpot", f"assets[{a.label}].s0", f"s0={a.s0} must be finite and > 0"))
        _check_rate_bounds(f"assets[{a.label}].dividend_yield", a.dividend_yield, v)
        _check_rate_bounds(f"assets[{a.label}].repo_rate", a.repo_rate, v)

    dom_name = domestic[0].name if len(domestic) == 1 else None
    fx_currencies = [f.foreign for f in model.fx]
    if len(set(fx_currencies)) != len(fx_currencies):
        v.append(Violation("DuplicateFxPair", "fx", f"duplicated pairs: {sorted(fx_currencies)}"))
    for f in model.fx:
        if f.foreign not in names:
            v.append(Violation("UnknownCurrency", f"fx[{f.foreign}].foreign", f.foreign))
        if f.foreign == dom_name:
            v.append(Violation("DomesticFxPair", f"fx[{f.foreign}]", "domestic pair is identically 1"))
        if not 0 < f.x0 < math.inf:
            v.append(Violation("NonPositiveFx", f"fx[{f.foreign}].x0", f"x0={f.x0} must be finite and > 0"))
        if not 0 <= f.sigma <= VOL_BOUND:
            v.append(
                Violation("NegativeVolatility", f"fx[{f.foreign}].sigma", f"sigma {f.sigma} not in [0, {VOL_BOUND}]")
            )
    for cur in model.currencies:
        if dom_name is not None and cur.name != dom_name and cur.name not in fx_currencies:
            v.append(Violation("MissingFxPair", f"fx[{cur.name}]", "non-domestic currency without FX pair"))

    # correlation must cover each driver exactly once, in any order
    expected = [a.label for a in model.assets] + [fx_label(f.foreign) for f in model.fx]
    corr = model.correlation
    if sorted(corr.labels) != sorted(expected):
        v.append(
            Violation(
                "MissingCorrelationLabel",
                "correlation.labels",
                f"labels {sorted(corr.labels)} must match drivers {sorted(expected)}",
            )
        )
    m = corr.matrix
    n = len(corr.labels)
    if m.shape != (n, n):
        v.append(Violation("BadCorrelationShape", "correlation.matrix", f"shape {m.shape}, need ({n}, {n})"))
        return v
    if n:
        if not np.allclose(m, m.T, atol=1e-12):
            v.append(Violation("NonSymmetricCorrelation", "correlation.matrix", "matrix is not symmetric"))
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            v.append(Violation("NonUnitDiagonal", "correlation.matrix", "diagonal entries must be 1"))
        if np.any(np.abs(m) > 1.0 + 1e-12):
            v.append(Violation("NonPsdCorrelation", "correlation.matrix", "entries outside [-1, 1]"))
        elif np.allclose(m, m.T, atol=1e-12):
            smallest = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.T))))
            if smallest < PSD_TOL:
                v.append(
                    Violation(
                        "NonPsdCorrelation",
                        "correlation.matrix",
                        f"smallest eigenvalue {smallest:.3e} below tolerance {PSD_TOL}",
                    )
                )
    return v


@dataclass(frozen=True)
class ValidatedModel:
    """Sealed model; immutable and safe to share across workers.

    ``driver_labels`` is the canonical driver order: assets first (model
    order), then FX pairs. ``mixing[d, k]`` is the weight of independent
    normal factor k in driver d, with mixing @ mixing.T equal to the
    correlation. The factors come in a fixed factor order, FX pairs first
    and then assets, each in model order, and ``mixing`` is the Cholesky
    factor in that order, lower triangular once its rows are too: an FX rate
    reads only the factors of the FX pairs up to its own, and an asset those
    and the factors of the assets up to its own. Where the correlation is
    within about 1e-6 of singular, as at a correlation of +-1, the factor is
    dense from that factor on (:func:`_cholesky`).
    """

    currencies: tuple[Currency, ...]
    rates: dict[str, CurveSet]
    assets: tuple[AssetSpec, ...]
    fx: tuple[FxSpec, ...]
    correlation: CorrelationMatrix
    driver_labels: tuple[str, ...]
    mixing: np.ndarray

    @property
    def domestic(self) -> str:
        return next(c.name for c in self.currencies if c.domestic)

    @property
    def currency_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.currencies)

    def curve_set(self, currency: str) -> CurveSet:
        """The curves of ``currency``; :class:`UnknownCurrency` for a currency the model lacks."""
        if currency not in self.rates:
            raise UnknownCurrency(currency)
        return self.rates[currency]

    def curve(self, currency: str, role: str) -> RateCurve:
        return self.curve_set(currency).by_role(role)

    def asset(self, label: str) -> AssetSpec:
        for a in self.assets:
            if a.label == label:
                return a
        raise ConfigError(f"unknown asset {label!r}")

    def fx_spec(self, currency: str) -> FxSpec:
        for f in self.fx:
            if f.foreign == currency:
                return f
        raise UnknownCurrency(f"no FX pair for {currency!r}")

    def driver_spec(self, label: str) -> AssetSpec | FxSpec:
        """The spec of a driver: an asset's own label, or :func:`fx_label` of a currency."""
        if not label.startswith("fx:"):
            return self.asset(label)
        currency = label[3:]
        if currency == self.domestic:
            raise DomesticPairRequested(currency)
        return self.fx_spec(currency)

    def fx_drivers(self, *currencies: str) -> list[str]:
        """The driver labels of the FX rates of ``currencies``, each once; the domestic rate is one, no driver."""
        return [fx_label(currency) for currency in dict.fromkeys(currencies) if currency != self.domestic]

    def restricted(self, labels) -> "ValidatedModel":
        """The sub-model of the drivers ``labels``, sealed by :func:`validate_model`.

        It keeps the domestic currency, each currency whose FX driver is
        named, each named asset with the FX pair of its currency, and the
        correlation submatrix, in ``driver_labels`` order; so
        ``restricted(driver_labels)`` simulates bit for bit as the model does,
        a restriction to a prefix of the factor order (see the class
        docstring) simulates each of its drivers bit for bit as the model
        does, as long as the prefix ends before any near-singular factor
        (:func:`_cholesky`), and ``restricted(())`` is a zero-driver model. A label that names no
        driver raises :class:`ConfigError`.
        """
        labels = set(labels)
        unknown = sorted(labels - set(self.driver_labels))
        if unknown:
            raise ConfigError(f"restricted names no driver: {unknown}; drivers: {list(self.driver_labels)}")
        assets = [a for a in self.assets if a.label in labels]
        kept = {self.domestic} | {a.currency for a in assets}
        kept |= {f.foreign for f in self.fx if fx_label(f.foreign) in labels}
        currencies = [c for c in self.currencies if c.name in kept]
        fx = [f for f in self.fx if f.foreign in kept]
        drivers = [a.label for a in assets] + [fx_label(f.foreign) for f in fx]
        rows = [self.driver_labels.index(label) for label in drivers]
        return validate_model(
            MarketModel(
                currencies=currencies,
                rates={c.name: self.rates[c.name] for c in currencies},
                assets=assets,
                fx=fx,
                correlation=CorrelationMatrix(drivers, self.correlation.matrix[np.ix_(rows, rows)]),
            )
        )

    def require_symmetric_collateral_rates(self, *currencies: str) -> None:
        """Raise :class:`AsymmetricCollateralRates` unless each currency's collateral borrow and lend curves coincide.

        Both curves must be set; a currency the model lacks raises :class:`UnknownCurrency`.
        """
        for currency in currencies:
            cs = self.curve_set(currency)
            if cs.collateral_borrow is None or cs.collateral_borrow != cs.collateral_lend:
                raise AsymmetricCollateralRates(f"collateral borrow and lend rates must coincide for {currency!r}")


def _cholesky(m: np.ndarray) -> np.ndarray:
    """The lower-triangular L with L @ L.T = m, by the column recursion (Glasserman 2003, §2.3.3).

    Each entry is a sum in column order over the columns before it, in
    Python floats, so the factor of a leading block of ``m`` is the leading
    block of its factor, bit for bit. A pivot below ``PIVOT_FLOOR`` ends the
    recursion: the rest of ``m`` is then within about 1e-6 of singular, and
    its remaining Schur complement is factored by its eigenvalues, clipped
    at 0, into a dense block. A correlation of +-1 is such a case; an asset
    whose only factor before its own is its FX rate's, at a correlation of
    1, gets a zero column and reads that factor alone.
    """
    rows = m.tolist()
    factor = [[0.0] * len(rows) for _ in rows]
    for j, lj in enumerate(factor):
        pivot = rows[j][j]
        for k in range(j):
            pivot -= lj[k] * lj[k]
        if pivot < PIVOT_FLOOR:
            done = np.array(factor).reshape(m.shape)
            rest = m[j:, j:] - done[j:, :j] @ done[j:, :j].T
            eigval, eigvec = np.linalg.eigh(0.5 * (rest + rest.T))
            done[j:, j:] = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
            return done
        lj[j] = math.sqrt(pivot)
        for i in range(j + 1, len(rows)):
            li, s = factor[i], rows[i][j]
            for k in range(j):
                s -= li[k] * lj[k]
            li[j] = s / lj[j]
    return np.array(factor).reshape(m.shape)


def validate_model(model: MarketModel | ValidatedModel) -> ValidatedModel:
    """Validate and seal a market model; idempotent on an already sealed model.

    Raises :class:`ModelValidationError` carrying every violation found.
    """
    if isinstance(model, ValidatedModel):
        return model
    violations = _validate(model)
    if violations:
        raise ModelValidationError(violations)

    # canonical driver order: assets in model order, then fx pairs in model order
    labels = tuple(a.label for a in model.assets) + tuple(fx_label(f.foreign) for f in model.fx)
    perm = [model.correlation.labels.index(lab) for lab in labels]
    m = model.correlation.matrix[np.ix_(perm, perm)]
    m = 0.5 * (m + m.T)
    # factor order: fx pairs, then assets, so an FX rate reads the first factors alone
    factors = list(range(len(model.assets), len(labels))) + list(range(len(model.assets)))
    mixing = np.zeros_like(m)
    mixing[factors] = _cholesky(m[np.ix_(factors, factors)])
    return ValidatedModel(
        currencies=tuple(model.currencies),
        rates=dict(model.rates),
        assets=tuple(model.assets),
        fx=tuple(model.fx),
        correlation=CorrelationMatrix(labels, m),
        driver_labels=labels,
        mixing=mixing,
    )


def cross_currency_basis(model: ValidatedModel, k3: str, t) -> float | np.ndarray:
    """Spread q_k3(t) = (r_dom - r_k3) - (rc_dom - rc_k3) between the unsecured-rate
    and collateral-rate differentials at ``t`` (scalar or array).

    Uses the collateral *lend* curves; 0.0 for the domestic currency.
    """
    return cross_currency_basis_of(model, k3, lambda curve: curve.rate(t))


def cross_currency_basis_integral(model: ValidatedModel, k3: str, t0: float, t1: float) -> float:
    """Exact integral of the basis over [t0, t1]."""
    return cross_currency_basis_of(model, k3, lambda curve: curve.integral(t0, t1))


def cross_currency_basis_of(model: ValidatedModel, k3: str, integrate):
    """The basis combination of ``integrate(curve)`` over the four curves that define q_k3.

    ``integrate`` maps a curve to its integral over some interval(s), for
    example ``lambda c: c.step_integrals(times)``. The domestic basis is 0.0.
    """
    if k3 not in model.currency_names:
        raise UnknownCurrency(k3)
    e = model.domestic
    if k3 == e:
        return 0.0
    return (
        integrate(model.curve(e, "unsecured"))
        - integrate(model.curve(k3, "unsecured"))
        - integrate(model.curve(e, "collateral_lend"))
        + integrate(model.curve(k3, "collateral_lend"))
    )


def collateralized_value(model: ValidatedModel, contract: Contract, k3: str, times) -> np.ndarray:
    """Sum of a_i exp(G(t_i) - G(t)) over the flows with t_i > t, at each entry t of ``times``.

    G(t) is the integral over [0, t] of -(rc_dom + q_k3) + (r_dom - r_k2), so one
    unit of k2 paid at T and fully collateralized in k3 is worth
    exp(G(T) - G(t)) X_k2(t) at t: discounted at the domestic collateral rate
    plus the cross-currency basis of k3 (none for domestic k3) and converted at
    the FX forward of the unsecured differential (none for domestic k2). The
    sum is in units of k2. One (n_times, n_flows) matrix summed over the flows;
    G is evaluated at the flow dates themselves, so they need not be grid nodes.
    """
    times = np.asarray(times, dtype=float)
    flow_t = np.array(contract.flow_times)
    n = len(times)
    at = np.concatenate([times, flow_t])
    e, k2 = model.domestic, contract.native_currency
    g = -model.curve(e, "collateral_lend").integrals(at) - cross_currency_basis_of(
        model, k3, lambda curve: curve.integrals(at)
    )
    if k2 != e:
        g = g + (model.curve(e, "unsecured").integrals(at) - model.curve(k2, "unsecured").integrals(at))
    growth = np.where(flow_t[None, :] > times[:, None], np.exp(g[None, n:] - g[:n, None]), 0.0)
    return (growth * [a for _, a in contract.flows]).sum(axis=1)


# ---------------------------------------------------------------------------
# JSON ingestion. Schema documented in README.md.
# ---------------------------------------------------------------------------


def _curve_from_dict(doc: dict, key: str, where: str) -> RateCurve:
    """The curve ``doc[key]``: a flat rate (0 when absent) or an object of knots and values."""
    if not isinstance(doc.get(key), dict):  # json_float rejects a boolean or a string
        return RateCurve.flat(doc_value(doc, key, where, json_float, 0.0))
    where = f"{where}.{key}"

    def floats(value):
        return np.asarray(json_numbers(value), dtype=float)

    return RateCurve(doc_value(doc[key], "knots", where, floats), doc_value(doc[key], "values", where, floats))


def _curveset_from_dict(obj: dict, where: str) -> CurveSet:
    doc_value(obj, "unsecured", where)  # the one required role
    return CurveSet(**{role: _curve_from_dict(obj, role, where) for role in CurveSet.ROLES if role in obj})


def model_from_dict(doc: dict) -> MarketModel:
    """Build a raw MarketModel from a parsed JSON document."""
    currencies = []
    rates = {}
    for i, cur in enumerate(doc_value(doc, "currencies", "model", list)):
        name = doc_value(cur, "name", f"currencies[{i}]", json_str)
        domestic = doc_value(cur, "domestic", f"currencies[{i}]", json_bool, False)
        currencies.append(Currency(name=name, domestic=domestic))
        rates[name] = _curveset_from_dict(cur.get("rates", {}), f"currencies[{i}].rates")
    assets = [
        AssetSpec(
            label=doc_value(a, "label", f"assets[{i}]", json_str),
            currency=doc_value(a, "currency", f"assets[{i}]", json_str),
            s0=doc_value(a, "s0", f"assets[{i}]", json_float),
            sigma=doc_value(a, "sigma", f"assets[{i}]", json_float),
            dividend_yield=_curve_from_dict(a, "dividend_yield", f"assets[{i}]"),
            repo_rate=_curve_from_dict(a, "repo_rate", f"assets[{i}]"),
        )
        for i, a in enumerate(doc_value(doc, "assets", "model", list, []))
    ]
    fx = [
        FxSpec(
            foreign=doc_value(f, "currency", f"fx[{i}]", json_str),
            x0=doc_value(f, "x0", f"fx[{i}]", json_float),
            sigma=doc_value(f, "sigma", f"fx[{i}]", json_float),
        )
        for i, f in enumerate(doc_value(doc, "fx", "model", list, []))
    ]
    corr_doc = doc.get("correlation")
    if corr_doc is None:
        labels = [a.label for a in assets] + [fx_label(f.foreign) for f in fx]
        correlation = CorrelationMatrix.identity(labels)
    else:
        labels = doc_value(corr_doc, "labels", "correlation", json_strings)
        correlation = doc_value(corr_doc, "matrix", "correlation", lambda m: CorrelationMatrix(labels, json_numbers(m)))
    return MarketModel(currencies=currencies, rates=rates, assets=assets, fx=fx, correlation=correlation)


def load_model(path: str) -> MarketModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
