"""Exception hierarchy.

Three branches matter operationally: configuration problems (bad model or
trade inputs, exit code 1 in the CLI), numerical failures (exit code 2),
and I/O errors (plain OSError, exit code 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class XccyError(Exception):
    """Base class for all engine errors."""


class ConfigError(XccyError):
    """Invalid model, trade, or run configuration."""


class NumericalError(XccyError):
    """A numerical procedure failed to produce a usable result."""


@dataclass(frozen=True)
class Violation:
    """One validation finding, naming the offending field."""

    code: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.field}]: {self.message}"


class ModelValidationError(ConfigError):
    """Raised by model validation; carries the full list of violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


# model / curve inputs
class NegativeTime(ConfigError):
    pass


class UnknownCurrency(ConfigError):
    pass


class DomesticPairRequested(ConfigError):
    pass


# simulation inputs
class EmptyGrid(ConfigError):
    pass


class ZeroPaths(ConfigError):
    pass


# path functionals
class FlowOffGrid(ConfigError):
    pass


class GridMismatch(ConfigError):
    pass


class MissingCollateralRates(ConfigError):
    pass


# collateral
class NonPositiveFx(ConfigError):
    pass


class MissingRates(ConfigError):
    pass


# pricing
class EndogenousSpecPassed(ConfigError):
    pass


class ScenarioMeasureMismatch(ConfigError):
    pass


class AsymmetricCollateralRates(ConfigError):
    pass


# diagnostics
class UnknownProcessId(ConfigError):
    pass


# bsde
class SingularRegression(NumericalError):
    pass



def json_numbers(value):
    """``value`` itself, unless it is or its nested lists hold a JSON boolean or string: :class:`TypeError` then.

    ``float`` and ``np.asarray(..., dtype=float)`` would read ``true`` as 1.0
    and ``"0.5"`` as 0.5; a ``kind`` for :func:`doc_value` of a number or an
    array of numbers.
    """
    if isinstance(value, bool):
        raise TypeError(f"{str(value).lower()} is a JSON boolean, not a number")
    if isinstance(value, str):
        raise TypeError(f"{value!r} is a JSON string, not a number")
    if isinstance(value, list):
        for item in value:
            json_numbers(item)
    return value


def json_float(value) -> float:
    """``float`` of a JSON number, :class:`TypeError` for a boolean or a string: a ``kind`` for :func:`doc_value`."""
    return float(json_numbers(value))


def finite_float(value) -> float:
    """:func:`json_float`, raising :class:`ValueError` for NaN or an infinity: a ``kind`` for :func:`doc_value`."""
    number = json_float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def json_str(value) -> str:
    """``value`` if it is a JSON string, else :class:`TypeError`: a ``kind`` for :func:`doc_value` of a name.

    A label, a currency or a functional name is compared, hashed and sorted
    with other names; a number, a list or an object there would fail deep in
    the engine instead of naming its field.
    """
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a JSON string")
    return value


def json_strings(value) -> list[str]:
    """``value`` if it is a JSON array of strings, else :class:`TypeError`: a ``kind`` for :func:`doc_value`."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a JSON array")
    return [json_str(item) for item in value]


def json_bool(value) -> bool:
    """``value`` if it is a JSON boolean, else :class:`TypeError`: a ``kind`` for :func:`doc_value`.

    ``bool`` would read the string ``"false"`` as true.
    """
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a JSON boolean (true or false)")
    return value


def doc_value(doc, key: str, where: str, kind=None, default=...):
    """``doc[key]`` of a parsed JSON object, converted by ``kind`` if given; ``default`` if absent.

    A ``doc`` that is no object, a missing key without a default or a value
    ``kind`` rejects raises :class:`ConfigError` naming ``where.key``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        if default is ...:
            raise ConfigError(f"{where}.{key} is missing")
        return default
    try:
        return doc[key] if kind is None else kind(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise ConfigError(f"{where}.{key} is malformed: {exc}") from exc
