"""Bilateral contracts as finite streams of dated cashflows.

A contract is a finite list of (time, amount) lumps in one native currency,
signed from the hedger's point of view (negative = the hedger pays). The
optional flow at time 0 is the contract's inception price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, doc_value, json_float, json_str


@dataclass(frozen=True)
class Contract:
    native_currency: str
    flows: tuple[tuple[float, float], ...]
    initial_flow: float = 0.0

    def __init__(self, native_currency, flows, initial_flow=0.0):
        flows = tuple((float(t), float(a)) for t, a in flows)
        for t, a in flows:
            if not (math.isfinite(t) and math.isfinite(a)):
                raise ConfigError(f"contract.flows: flow ({t}, {a}) needs a finite time and amount")
            if t <= 0:
                raise ConfigError(f"flow time {t} must be strictly positive; use initial_flow for t=0")
        flows = tuple(sorted(flows))
        initial_flow = float(initial_flow)
        if not math.isfinite(initial_flow):
            raise ConfigError(f"contract.initial_flow must be finite, got {initial_flow}")
        object.__setattr__(self, "native_currency", native_currency)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "initial_flow", initial_flow)

    @property
    def flow_times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.flows)

    @property
    def maturity(self) -> float:
        return self.flows[-1][0] if self.flows else 0.0

    @classmethod
    def zero(cls, currency: str) -> "Contract":
        return cls(currency, ())

    @classmethod
    def from_dict(cls, doc: dict) -> "Contract":
        return cls(
            native_currency=doc_value(doc, "currency", "contract", json_str),
            flows=doc_value(doc, "flows", "contract", lambda f: [(json_float(t), json_float(a)) for t, a in f], ()),
            initial_flow=doc_value(doc, "initial_flow", "contract", json_float, 0.0),
        )
