"""Statistical certification of the no-arbitrage drift conditions.

Two families of processes must be drift-free under the domestic martingale
measure: per asset, the accumulated funding-gain increments net of the FX
exposure term; per currency, the discounted FX account X * B_f / B_dom. The
tests compute z-statistics of the Monte Carlo mean at checkpoint times; a
deliberately mis-drifted scenario is the negative control.

The single-currency reduction suite asserts that with one currency every FX
correction term vanishes identically and the engine collapses to plain
single-curve pricing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collateral import (
    CollateralPath,
    CollateralSpec,
    adjustment_increments,
)
from .contracts import Contract
from .errors import ConfigError, UnknownProcessId
from .model import ValidatedModel
from .pricing import price_exogenous
from .simulation import ScenarioSet, TimeGrid, simulate
from .wealth import discounted_flows, fx_hedge_gain_increments, gain_increments


@dataclass(frozen=True)
class CheckpointStat:
    t: float
    mean: float
    std_error: float
    z: float


@dataclass(frozen=True)
class TestReport:
    process_id: str
    checkpoints: tuple[CheckpointStat, ...]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(abs(c.z) <= self.threshold for c in self.checkpoints)

    @property
    def max_abs_z(self) -> float:
        return max((abs(c.z) for c in self.checkpoints), default=0.0)

    def to_dict(self) -> dict:
        return {
            "process_id": self.process_id,
            "threshold": self.threshold,
            "passed": self.passed,
            "checkpoints": [
                {"t": c.t, "mean": c.mean, "std_error": c.std_error, "z": c.z} for c in self.checkpoints
            ],
        }


def process_ids(model: ValidatedModel) -> list[str]:
    """Every certifiable process: one per asset, one per currency."""
    ids = [f"asset:{a.label}" for a in model.assets]
    ids += [f"fx:{c}" for c in model.currency_names]
    return ids


def _process_values(scenario: ScenarioSet, process_id: str) -> np.ndarray:
    """Cumulative process values per path per grid time, normalized to start at 0."""
    model = scenario.model
    if process_id.startswith("asset:"):
        label = process_id.split(":", 1)[1]
        if label not in {a.label for a in model.assets}:
            raise UnknownProcessId(process_id)
        b_repo = scenario.account(label, "repo")
        inc = fx_hedge_gain_increments(scenario, label) / b_repo[None, :-1]
        out = np.zeros((scenario.n_paths, len(scenario.grid.times)))
        out[:, 1:] = np.cumsum(inc, axis=1)
        return out
    if process_id.startswith("fx:"):
        cur = process_id.split(":", 1)[1]
        if cur not in model.currency_names:
            raise UnknownProcessId(process_id)
        x = scenario.fx(cur)
        b_f = scenario.account(cur)
        b_e = scenario.account(model.domestic)
        vals = x * (b_f / b_e)[None, :]
        return vals - vals[:, :1]
    raise UnknownProcessId(process_id)


def martingale_test(
    scenario: ScenarioSet,
    process_id: str,
    checkpoints: int | list[float] = 4,
    threshold: float = 3.0,
) -> TestReport:
    """z-statistics of the process mean at checkpoint times.

    ``checkpoints`` is either a count >= 1 (that many grid nodes, evenly
    spaced, ending at the horizon) or a non-empty list of times; anything else
    would certify nothing and raises :class:`ConfigError`. z is 0 for a
    degenerate process with zero mean and zero spread, infinite when the mean
    is off with zero spread.
    """
    grid = scenario.grid
    if isinstance(checkpoints, int):
        if checkpoints < 1:
            raise ConfigError(f"checkpoint count must be >= 1, got {checkpoints}")
        idx = np.unique(np.linspace(0, grid.n_steps, checkpoints + 1).round().astype(int))[1:]
        times = [float(grid.times[i]) for i in idx]
    else:
        times = [float(t) for t in checkpoints]
        if not times:
            raise ConfigError("checkpoint list is empty")
    values = _process_values(scenario, process_id)
    stats = []
    n = scenario.n_paths
    for t in times:
        j = grid.index_of(t)
        v = values[:, j]
        mean = float(np.mean(v))
        se = float(np.std(v, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        if se == 0.0:
            z = 0.0 if mean == 0.0 else math.inf
        else:
            z = mean / se
        stats.append(CheckpointStat(t=t, mean=mean, std_error=se, z=z))
    return TestReport(process_id=process_id, checkpoints=tuple(stats), threshold=threshold)


def run_martingale_suite(
    scenario: ScenarioSet, checkpoints: int | list[float] = 4, threshold: float = 3.0
) -> list[TestReport]:
    return [martingale_test(scenario, pid, checkpoints, threshold) for pid in process_ids(scenario.model)]


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def reduction_suite(model: ValidatedModel, n_paths: int = 2000, seed: int = 7) -> SuiteReport:
    """Single-currency consistency checks; the model must have exactly one currency."""
    if len(model.currencies) != 1:
        raise ConfigError("reduction suite requires a single-currency model")
    e = model.domestic
    horizon = 1.0
    grid = TimeGrid.regular(horizon, 8)
    scenario = simulate(model, grid, n_paths, seed)
    checks: list[SuiteCheck] = []

    # 1) every collateral convention loses its FX term identically
    c = np.ones((n_paths, len(grid.times)))
    coll = CollateralPath(c, e)
    for form in ("cash", "risky"):
        for convention in ("segregation", "rehypothecation"):
            kwargs = {}
            if form == "risky":
                if not model.assets:
                    continue
                kwargs = {"posted_asset": model.assets[0].label, "received_asset": model.assets[0].label}
            spec = CollateralSpec(currency=e, form=form, convention=convention, **kwargs)
            inc_w = adjustment_increments(scenario, coll, spec, fx_term="increments")
            inc_p = adjustment_increments(scenario, coll, spec, fx_term="drift")
            same = np.array_equal(inc_w, inc_p)
            checks.append(
                SuiteCheck(
                    name=f"fx-term-vanishes[{form}/{convention}]",
                    passed=bool(same),
                    detail="wealth-form and pricing-form streams identical with domestic collateral",
                )
            )

    # 2) gain increments reduce to dS - S r dt + kappa S dt
    for a in model.assets:
        s = scenario.asset(a.label)
        repo_int = a.repo_rate.step_integrals(grid.times)
        div_int = a.dividend_yield.step_integrals(grid.times)
        direct = np.diff(s, axis=1) + s[:, :-1] * (div_int - repo_int)
        err = float(np.max(np.abs(gain_increments(scenario, a.label) - direct)))
        checks.append(
            SuiteCheck(
                name=f"gain-process-reduction[{a.label}]",
                passed=err == 0.0,
                detail=f"max deviation {err:.3e}",
            )
        )

    # 3) with zero collateral the price is the bare discounted-flow expectation
    contract = Contract(e, ((horizon, -1.0),))
    spec = CollateralSpec(currency=e)
    zero_coll = CollateralPath(np.zeros((n_paths, len(grid.times))), e)
    report = price_exogenous(scenario, contract, zero_coll, spec)
    bare = -float(np.mean(discounted_flows(scenario, contract)))
    checks.append(
        SuiteCheck(
            name="uncollateralized-price-reduction",
            passed=report.leg_collateral == 0.0 and report.price == bare,
            detail=f"price {report.price!r} vs bare flow expectation {bare!r}",
        )
    )
    return SuiteReport(checks=tuple(checks))
