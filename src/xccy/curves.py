"""Piecewise-constant short-rate curves and the cash accounts they generate.

All times are year fractions, all rates are annualized continuous-compounding
short rates. A curve is right-continuous: value ``values[i]`` applies on
``[knots[i], knots[i+1])`` and the last value extends to infinity. Cash
accounts are the exact exponentials of the integrated rate, so there is no
time-stepping error anywhere downstream of this module.

Every grid-wide rate integral is built on one vectorised primitive:
:func:`step_pieces` cuts the steps of a grid at the knots inside them, and
:meth:`RateCurve.step_integrals` sums ``rate(left end) * width`` over those pieces
per step with one ``np.add.reduceat``. These are the terms the scalar
:meth:`RateCurve.integral` adds, so the two agree bit for bit on a step of at
most two pieces and to rounding on longer steps, whose terms the two add in
different orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import ConfigError, MissingRates, NegativeTime

RATE_BOUND = 1.0  # sanity bound on |r|, per-year
# sanity bound on a lognormal volatility, per sqrt(year): the log-drift -sigma^2 T / 2 stays above
# exp's underflow (about -745) for horizons T up to about 60 years
VOL_BOUND = 5.0


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Deterministic piecewise-constant annualized short rate.

    Two curves are equal when their knots and values are equal element for element.
    """

    knots: np.ndarray
    values: np.ndarray

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or values.ndim != 1 or knots.size != values.size:
            raise ConfigError("knots and values must be 1-d arrays of equal length")
        if knots.size == 0:
            raise ConfigError("rate curve needs at least one knot")
        if knots[0] != 0.0:
            raise ConfigError(f"first knot must be 0, got {knots[0]}")
        if not np.all(np.isfinite(knots)):
            raise ConfigError(f"knots must be finite, got {knots.tolist()}")
        if np.any(np.diff(knots) <= 0):
            raise ConfigError("knots must be strictly ascending")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, RateCurve):
            return NotImplemented
        return np.array_equal(self.knots, other.knots) and np.array_equal(self.values, other.values)

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        return cls(np.array([0.0]), np.array([float(rate)]))

    def rate(self, t):
        """Short rate at time ``t`` (scalar or array)."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, len(self.values) - 1)
        out = self.values[idx]
        return out if out.ndim else float(out)

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the rate over [t0, t1]; antisymmetric in its arguments."""
        if t1 < t0:
            return -self.integral(t1, t0)
        # segment boundaries clipped to [t0, t1]
        edges = np.concatenate([[t0], self.knots[(self.knots > t0) & (self.knots < t1)], [t1]])
        return float(np.sum(self.rate(edges[:-1]) * np.diff(edges)))

    def step_integrals(self, times) -> np.ndarray:
        """Exact integral over each step ``[times[j], times[j+1]]`` of a strictly ascending array."""
        lefts, widths, starts = step_pieces(times, self)
        return np.add.reduceat(self.rate(lefts) * widths, starts)

    def integrals(self, times) -> np.ndarray:
        """Cumulative integral from 0 to each entry of ``times``, in any order.

        Whole knot pieces are summed from 0, then the piece up to t is added,
        as :meth:`integral` does; the first rate extends below 0.
        """
        times = np.asarray(times, dtype=float)
        at_knots = np.cumsum(np.concatenate([[0.0], self.values[:-1] * np.diff(self.knots)]))
        k = np.clip(np.searchsorted(self.knots, times, side="right") - 1, 0, None)
        return at_knots[k] + self.values[k] * (times - self.knots[k])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def cash_account_value(rate: RateCurve, t) -> float | np.ndarray:
    """Value of the unit cash account B(t) = exp(integral of the rate).

    B(0) = 1 and the evaluation is the exact piecewise exponential of
    :meth:`RateCurve.integrals`: a float for a scalar ``t``, an array for an array.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise NegativeTime(f"cash account requested at negative time {t}")
    value = np.exp(rate.integrals(t_arr))
    return value if t_arr.ndim else float(value)


def step_pieces(times, *curves: RateCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the steps of a strictly ascending grid at the knots of ``curves`` inside them.

    Every curve is constant on each piece. Returns the piece left ends, the
    piece widths and each step's first piece index, ready for
    ``np.add.reduceat``. A curve's rate on a piece is its rate at the left
    end, which lies in the piece however narrow it is; a midpoint of a piece
    one ulp wide rounds onto one of its ends.
    """
    times = np.asarray(times, dtype=float)
    knots = np.concatenate([c.knots for c in curves])
    edges = np.union1d(times, knots[(knots > times[0]) & (knots < times[-1])])
    return edges[:-1], np.diff(edges), np.searchsorted(edges, times[:-1])


@dataclass(frozen=True)
class CurveSet:
    """The per-currency funding curves, keyed by role.

    Roles (JSON keys in the model document):

    - ``unsecured``            treasury borrowing/lending (required)
    - ``collateral_borrow``    interest the hedger pays on received collateral
    - ``collateral_lend``      interest the hedger earns on posted collateral
    - ``coll_post_funding``    funding account for posting risky-asset collateral
    - ``coll_reinvest_seg``    reinvestment of received collateral under segregation
                               (defaults to zero interest)
    - ``coll_reinvest_rehyp``  reinvestment of received risky collateral under
                               rehypothecation
    - ``cash_post_funding``    funding account for posting cash collateral; no
                               default on purpose, it must be configured

    Roles other than ``unsecured`` may be left unset; asking for an unset role
    raises :class:`~xccy.errors.MissingRates` at the point of use.
    """

    unsecured: RateCurve
    collateral_borrow: RateCurve | None = None
    collateral_lend: RateCurve | None = None
    coll_post_funding: RateCurve | None = None
    coll_reinvest_seg: RateCurve = field(default_factory=lambda: RateCurve.flat(0.0))
    coll_reinvest_rehyp: RateCurve | None = None
    cash_post_funding: RateCurve | None = None

    ROLES: ClassVar[tuple[str, ...]]  # the field names in field order, set below the class

    def by_role(self, role: str) -> RateCurve:
        if role not in self.ROLES:
            raise ConfigError(f"unknown rate role {role!r}")
        curve = getattr(self, role)
        if curve is None:
            raise MissingRates(f"rate role {role!r} is not configured")
        return curve


CurveSet.ROLES = tuple(f.name for f in fields(CurveSet))
