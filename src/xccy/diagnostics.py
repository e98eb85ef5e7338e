"""Statistical certification of the no-arbitrage drift conditions.

Two families of processes must be drift-free under the domestic martingale
measure: per asset, the accumulated funding-gain increments net of the FX
exposure term; per currency, the discounted FX account X * B_f / B_dom. Each
test builds the process at the checkpoint nodes only, one block per
simulation chunk of paths, and folds each chunk's pair-mean moments
into every checkpoint's running mean and error bar in chunk order
(:func:`xccy.simulation.fold_sample_mean`, the reduction behind
:func:`~xccy.simulation.sample_mean`), so its memory does not grow with the
path count; a deliberately mis-drifted scenario is the negative control.

The single-currency reduction suite asserts that with one currency every FX
correction term vanishes identically and the engine collapses to plain
single-curve pricing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .collateral import CollateralPath, CollateralSpec
from .contracts import Contract
from .curves import RATE_BOUND
from .errors import ConfigError, UnknownProcessId
from .model import ValidatedModel
from .pricing import _collateral_leg_weights, price_exogenous
from .simulation import (
    ScenarioSet,
    TimeGrid,
    check_error_bar_paths,
    check_finite_estimate,
    chunk_columns,
    fold_sample_mean,
    simulate,
)
from .wealth import discounted_flows, gain_increments, hedge_operands, hedged_gain_step


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
            "checkpoints": [asdict(c) for c in self.checkpoints],
        }


def _checkpoint_blocks(
    scenario: ScenarioSet, process_id: str, nodes: np.ndarray
) -> tuple[Iterator[np.ndarray], float]:
    """The process at the grid ``nodes``, one block per simulation chunk, and the level it starts from.

    Each block is a new (n_nodes, count) array of one chunk, built from the
    chunk's time rows ``scenario.paths[d, j, lo:hi]`` only when the consumer
    draws it, in chunk order; no buffer outlives its chunk. The accounts,
    carries and driver rows are set up once per test.
    Assets accumulate the repo-discounted FX-hedged gains
    (:func:`~xccy.wealth.hedged_gain_step`) step by step, from X S / B_repo;
    FX is X * B_f / B_dom less its start.
    """
    model = scenario.model
    kind, _, name = process_id.partition(":")
    if kind == "asset" and name in {a.label for a in model.assets}:
        s, x, carry = hedge_operands(scenario, name)
        s, x = s.T, x.T  # time rows
        b_repo = scenario.repo_account(name)
        rows_at_step = [np.flatnonzero(nodes == j + 1) for j in range(nodes.max())]

        def block(cols):
            out = np.empty((len(nodes), cols.stop - cols.start))
            acc, gain, scratch = np.empty((3, out.shape[1]))
            for j, rows in enumerate(rows_at_step):
                hedged_gain_step(x[j + 1, cols], s[j + 1, cols], x[j, cols], s[j, cols], carry[j], gain, scratch)
                gain /= b_repo[j]
                if j:
                    acc += gain
                else:
                    acc[:] = gain  # a copy: 0.0 + gain would turn a -0.0 gain into 0.0
                out[rows] = acc
            return out

        start = s[0, 0] * x[0, 0] / b_repo[0]
    elif kind == "fx" and name in model.currency_names:
        x = scenario.fx(name).T
        ratio = scenario.account(name) / scenario.account(model.domestic)

        def block(cols):
            out = x[nodes, cols]
            out *= ratio[nodes, None]
            out -= x[0, cols] * ratio[0]
            return out

        start = x[0, 0] * ratio[0]
    else:
        raise UnknownProcessId(process_id)
    return (block(cols) for cols in chunk_columns(scenario.n_paths)), float(start)


def check_threshold(threshold: float) -> None:
    """Raise :class:`ConfigError` unless the |z| threshold is finite and > 0.

    One of 0 or less fails every test, an infinite one passes every test.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ConfigError(f"threshold must be finite and > 0, got {threshold}")


def martingale_test(
    scenario: ScenarioSet,
    process_id: str,
    checkpoints: int | list[float] = 4,
    threshold: float = 3.0,
) -> TestReport:
    """z-statistics of the process mean at checkpoint times.

    ``checkpoints`` is either a count >= 1 (that many grid nodes, evenly
    spaced, ending at the horizon) or a non-empty list of grid times after 0;
    anything else would certify nothing and raises :class:`ConfigError`, and
    so does a scenario whose path count is odd or below four. The mean and
    its standard error are :func:`~xccy.simulation.sample_mean` of the
    process at each checkpoint, folded chunk by chunk. z is the mean
    over the larger of its standard error and its rounding error,
    (j + 2) eps (1 + 2 RATE_BOUND t) of the level at node j: one rounding per
    step of a log at most 2 RATE_BOUND t in size, and a few for the
    exponentials and account ratios. A deterministic process (a zero-volatility FX pair) thus passes.
    The domestic FX process is identically 0 and is not simulated over: its
    mean and standard error are 0 at every checkpoint.
    A threshold that is not finite and positive raises :class:`ConfigError`
    (:func:`check_threshold`), and a mean or standard error that is not
    finite raises :class:`NumericalError` (:func:`~xccy.simulation.check_finite_estimate`).
    """
    check_threshold(threshold)
    check_error_bar_paths(scenario.n_paths)  # before any driver is simulated
    grid = scenario.grid
    if isinstance(checkpoints, int):
        if checkpoints < 1:
            raise ConfigError(f"checkpoint count must be >= 1, got {checkpoints}")
        nodes = np.unique(np.linspace(0, grid.n_steps, checkpoints + 1).round().astype(int))[1:]
        t = grid.times[nodes]
    else:
        t = np.asarray(checkpoints, dtype=float)
        if t.size == 0 or t.min() <= 0:
            raise ConfigError(f"checkpoints must be a non-empty list of times after t=0, got {t.tolist()}")
        nodes = grid.nodes_of(t)
        if nodes.min() == 0:
            raise ConfigError(f"checkpoint {t.min()} snaps onto the grid node t=0")
    if process_id == f"fx:{scenario.model.domestic}":
        # X = 1 and B_dom / B_dom = 1 bit for bit: the process is identically 0 from the level 1
        mean, se, start = np.zeros(len(nodes)), np.zeros(len(nodes)), 1.0
    else:
        blocks, start = _checkpoint_blocks(scenario, process_id, nodes)
        mean, se = fold_sample_mean(blocks)
        check_finite_estimate(f"{process_id} checkpoint mean", mean, se)
    relative = np.finfo(float).eps * (nodes + 2) * (1.0 + 2.0 * RATE_BOUND * t)
    rounding = relative * (np.abs(start + mean) + abs(start))
    scale = np.maximum(se, rounding)
    z = np.divide(mean, scale, out=np.zeros_like(mean), where=scale > 0)
    stats = (CheckpointStat(*map(float, row)) for row in zip(t, mean, se, z))
    return TestReport(process_id=process_id, checkpoints=tuple(stats), threshold=threshold)


def run_martingale_suite(
    scenario: ScenarioSet, checkpoints: int | list[float] = 4, threshold: float = 3.0
) -> list[TestReport]:
    """One test per certifiable process: per asset, then per currency."""
    model = scenario.model
    scenario.load()  # the tests read every driver: one pass for all of them
    ids = [f"asset:{a.label}" for a in model.assets] + [f"fx:{c}" for c in model.currency_names]
    return [martingale_test(scenario, pid, checkpoints, threshold) for pid in ids]


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
            "checks": [asdict(c) for c in self.checks],
        }


def reduction_suite(model: ValidatedModel, n_paths: int = 2000, seed: int = 7) -> SuiteReport:
    """Single-currency consistency checks; the model must have exactly one currency."""
    if len(model.currencies) != 1:
        raise ConfigError("reduction suite requires a single-currency model")
    check_error_bar_paths(n_paths)
    e = model.domestic
    horizon = 1.0
    grid = TimeGrid.regular(horizon, 8)
    scenario = simulate(model, grid, n_paths, seed)
    scenario.load()  # every asset is read: one pass for all of them
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
            realized = -coll.c[:, :-1] * np.diff(scenario.fx(spec.currency), axis=1)
            weight = _collateral_leg_weights(model, spec, grid.times)[2]
            checks.append(
                SuiteCheck(
                    name=f"fx-term-vanishes[{form}/{convention}]",
                    passed=not (realized.any() or weight.any()),
                    detail="realized -C dX and pricing's FX weight are 0 with domestic collateral",
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
