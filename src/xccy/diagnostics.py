"""Statistical certification of the no-arbitrage drift conditions.

Two families of processes must be drift-free under the domestic martingale
measure: per asset, the accumulated funding-gain increments net of the FX
exposure term; per currency, the discounted FX account X * B_f / B_dom. The
tests are streamed: each test's set-up (accounts, carry, checkpoint rows)
runs once, and then one pass over the simulation chunks reads each chunk in
time tiles (:meth:`~xccy.simulation.ScenarioSet.map_tiles`), carries every
process from one tile to the next up to the last checkpoint, and reduces it
at the checkpoint nodes to its pair-mean moments on the chunk's worker
thread (:func:`~xccy.simulation.pair_moments`). The moments are combined in
chunk order (:func:`~xccy.simulation.combine_moments`, the reduction behind
:func:`~xccy.simulation.sample_mean`), so the bits do not depend on the
worker count. On a scenario that is not stored, the tiles are simulated
into a ring buffer per thread and not kept, so the memory
grows neither with the path count nor with the step count. A deliberately
mis-drifted scenario is the negative control. A suite gates each z-test at
a fixed |z| bound, or the whole family at a family-wise false-alarm rate
(:func:`family_threshold`, :func:`family_p_value`), as ``xccy check`` does
by default.

The single-currency reduction suite asserts that with one currency every FX
correction term vanishes identically and the engine collapses to plain
single-curve pricing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .collateral import CollateralPath, CollateralSpec
from .contracts import Contract
from .curves import RATE_BOUND
from .errors import ConfigError, UnknownProcessId
from .model import ValidatedModel
from .pricing import _fx_leg_weight, price_exogenous
from .simulation import (
    ScenarioSet,
    TimeGrid,
    check_error_bar_paths,
    check_finite_estimate,
    chunk_columns,
    combine_moments,
    pair_moments,
    simulate,
)
from .wealth import discounted_flows, gain_increments, hedge_carry, hedged_gain_step

FALSE_ALARM = 1e-3  # family-wise false-alarm rate of a suite run without a threshold (xccy check's default)


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


class _CheckpointProcess:
    """A test's process at the checkpoint ``nodes``: set up once per test, read tile by tile per chunk (:meth:`read`).

    The set-up holds what does not depend on the paths: the accounts, the
    carry, the checkpoint rows each step writes, the FX account ratio and
    ``start``, the level the process starts from at the model's initial
    levels. Assets accumulate the repo-discounted FX-hedged gains
    (:func:`~xccy.wealth.hedged_gain_step`) step by step, from
    X S / B_repo; FX is X * B_f / B_dom less its start. ``drivers`` names
    the drivers it reads. A process id that names no asset or foreign
    currency raises :class:`UnknownProcessId`.
    """

    # an overflowing account or level gives a non-finite checkpoint mean, which
    # check_finite_estimate reports; numpy's warnings would only repeat it
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, scenario: ScenarioSet, process_id: str, nodes: np.ndarray):
        model = scenario.model
        kind, _, name = process_id.partition(":")
        if kind == "asset" and name in {a.label for a in model.assets}:
            asset = model.asset(name)
            self.drivers = (name, *model.fx_drivers(asset.currency))
            self.carry = hedge_carry(scenario, name)
            self.b_repo = scenario.repo_account(name)
            self.rows_at_step = [np.flatnonzero(nodes == j + 1) for j in range(nodes.max())]
            x0 = 1.0 if asset.currency == model.domestic else model.fx_spec(asset.currency).x0
            self.start = float(asset.s0 * x0 / self.b_repo[0])
        elif kind == "fx" and name in model.currency_names:
            self.drivers = tuple(model.fx_drivers(name))
            self.ratio = scenario.account(name) / scenario.account(model.domestic)
            # x0 ratio[0], the level at node 0 on every path: each level there is x0 bit for bit
            self.start = float(model.fx_spec(name).x0 * self.ratio[0])
        else:
            raise UnknownProcessId(process_id)
        self.process_id, self.kind, self.nodes, self.last = process_id, kind, nodes, int(nodes.max())

    @np.errstate(over="ignore", invalid="ignore")
    def read(self, out: np.ndarray, acc: np.ndarray, nodes: slice, levels: dict, scratch: np.ndarray) -> None:
        """Write the process at its checkpoints in (lo, hi] of the tile of nodes lo .. hi into the rows of ``out``.

        ``out`` is the chunk's (n_checkpoints, count) process and ``levels``
        the tile's level rows (:meth:`~xccy.simulation.ScenarioSet.map_tiles`);
        the tiles are read in time order. An asset runs one
        :func:`~xccy.wealth.hedged_gain_step` and one division by B_repo over
        the tile's steps up to its last checkpoint, into ``scratch[0]``, with
        ``scratch[1]`` its scratch: a (2, steps, count) buffer of at least the
        tile's steps, which every process of the chunk reuses. It adds the
        gains one step at a time to its running sum ``acc``, which it carries
        from one tile to the next: every element's operations are those of
        one step at a time.
        """
        lo, hi = nodes.start, min(nodes.stop - 1, self.last)
        if self.kind == "fx":
            x = levels[self.drivers[0]]
            for i in np.flatnonzero((self.nodes > lo) & (self.nodes <= hi)):
                np.multiply(x[self.nodes[i] - lo], self.ratio[self.nodes[i]], out=out[i])
                out[i] -= self.start
            return
        s = levels[self.drivers[0]][: hi - lo + 1]
        x = levels[self.drivers[1]][: hi - lo + 1] if len(self.drivers) > 1 else np.ones((hi - lo + 1, 1))
        gain, tmp = scratch[:, : hi - lo]
        hedged_gain_step(x[1:], s[1:], x[:-1], s[:-1], self.carry[lo:hi, None], gain, tmp)
        gain /= self.b_repo[lo:hi, None]
        for j, step_gain in enumerate(gain, lo):
            if j:
                acc += step_gain
            else:
                acc[:] = step_gain  # a copy: 0.0 + gain would turn a -0.0 gain into 0.0
            out[self.rows_at_step[j]] = acc


def family_size(checkpoints) -> int:
    """The z-tests among ``checkpoints`` that can raise a false alarm: those with a positive standard error.

    A degenerate process (the domestic FX account is identically 1) has zero
    spread and z = 0 exactly, so its checkpoints are not counted.
    """
    return sum(c.std_error > 0 for c in checkpoints)


def family_threshold(n_tests: int, false_alarm: float = FALSE_ALARM) -> float:
    """The two-sided Bonferroni bound on |z| for a family-wise false-alarm rate over ``n_tests`` (at least one) tests."""
    return NormalDist().inv_cdf(1.0 - false_alarm / (2 * max(n_tests, 1)))


def family_p_value(reports: list[TestReport]) -> float:
    """Holm's adjusted p-value of the family of ``reports``: min(1, n p) for its smallest two-sided p-value p.

    n is :func:`family_size` (at least one). The family fails at a
    false-alarm rate alpha exactly when this is below alpha, that is when its
    largest |z| exceeds :func:`family_threshold` (n, alpha); Holm (1979).
    """
    n = max(family_size(c for r in reports for c in r.checkpoints), 1)
    z = max((r.max_abs_z for r in reports), default=0.0)
    return min(1.0, n * math.erfc(z / math.sqrt(2.0)))


def check_threshold(threshold: float) -> None:
    """Raise :class:`ConfigError` unless the |z| threshold is finite and > 0.

    One of 0 or less fails every test, an infinite one passes every test.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ConfigError(f"threshold must be finite and > 0, got {threshold}")


def _checkpoint_nodes(grid: TimeGrid, checkpoints: int | list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The grid nodes of ``checkpoints`` and their times; see :func:`martingale_test`."""
    if isinstance(checkpoints, int):
        if checkpoints < 1:
            raise ConfigError(f"checkpoint count must be >= 1, got {checkpoints}")
        nodes = np.unique(np.linspace(0, grid.n_steps, checkpoints + 1).round().astype(int))[1:]
        return nodes, grid.times[nodes]
    t = np.asarray(checkpoints, dtype=float)
    if t.size == 0 or t.min() <= 0:
        raise ConfigError(f"checkpoints must be a non-empty list of times after t=0, got {t.tolist()}")
    nodes = grid.nodes_of(t)
    if nodes.min() == 0:
        raise ConfigError(f"checkpoint {t.min()} snaps onto the grid node t=0")
    return nodes, t


def _run_tests(
    scenario: ScenarioSet, process_ids: list[str], checkpoints: int | list[float], threshold: float | None
) -> list[TestReport]:
    """The tests of ``process_ids``, in that order, from one pass over the simulation chunks.

    Every input is checked first, so a bad one simulates nothing. Each
    chunk's worker reads the chunk's time tiles
    (:meth:`ScenarioSet.map_tiles`) up to the last checkpoint, each tile by
    every process in turn (:meth:`_CheckpointProcess.read`), and reduces
    each process at the checkpoints to its pair-mean moments
    (:func:`~xccy.simulation.pair_moments`); the moments are combined in
    chunk order (:func:`~xccy.simulation.combine_moments`), so the bits do
    not depend on the worker count, and no paths are kept. Without a
    ``threshold``, every test is gated by :func:`family_threshold` over the
    family's :func:`family_size`.
    """
    if threshold is not None:
        check_threshold(threshold)
    check_error_bar_paths(scenario.n_paths)  # before any driver is simulated
    nodes, t = _checkpoint_nodes(scenario.grid, checkpoints)
    domestic = f"fx:{scenario.model.domestic}"
    processes = [_CheckpointProcess(scenario, pid, nodes) for pid in process_ids if pid != domestic]
    last = nodes.max()
    gains = any(p.kind == "asset" for p in processes)  # an FX process reads no gain scratch

    def moments(cols: slice, tiles) -> list:
        # each process's checkpoint rows and running sum are the chunk's own, as work runs on several threads at
        # once; they are made at the process's first tile and reduced at the tile of the last checkpoint, so a
        # chunk of one tile holds the rows of one process at a time. The gain scratch is one per chunk, sized
        # at the first tile, which is the longest (row_tiles)
        count, state, scratch = cols.stop - cols.start, [None] * len(processes), None
        for tile, levels in tiles:
            if scratch is None:
                scratch = np.empty((2, tile.stop - tile.start - 1, count if gains else 0))
            for i, p in enumerate(processes):
                out, acc = state[i] or (np.empty((len(nodes), count)), np.empty(count))
                p.read(out, acc, tile, levels, scratch)
                state[i] = pair_moments(out) if tile.stop > last else (out, acc)
            if tile.stop > last:
                return state

    drivers = [label for p in processes for label in p.drivers]
    chunks = scenario.map_tiles(moments, *drivers) if processes else []
    folded = {p.process_id: (p.start, *combine_moments(c[i] for c in chunks)) for i, p in enumerate(processes)}
    # X = 1 and B_dom / B_dom = 1 bit for bit: the domestic FX process is identically 0 from the level 1
    folded[domestic] = (1.0, np.zeros(len(nodes)), np.zeros(len(nodes)))
    stats = []
    for process_id in process_ids:
        start, mean, se = folded[process_id]
        check_finite_estimate(f"{process_id} checkpoint mean", mean, se)
        relative = np.finfo(float).eps * (nodes + 2) * (1.0 + 2.0 * RATE_BOUND * t)
        rounding = relative * (np.abs(start + mean) + abs(start))
        scale = np.maximum(se, rounding)
        z = np.divide(mean, scale, out=np.zeros_like(mean), where=scale > 0)
        stats.append(tuple(CheckpointStat(*map(float, row)) for row in zip(t, mean, se, z)))
    if threshold is None:
        threshold = family_threshold(family_size(c for s in stats for c in s))
    return [TestReport(process_id=p, checkpoints=s, threshold=threshold) for p, s in zip(process_ids, stats)]


def martingale_test(
    scenario: ScenarioSet,
    process_id: str,
    checkpoints: int | list[float] = 4,
    threshold: float = 3.0,
) -> TestReport:
    """z-statistics of the process mean at checkpoint times: the suite of one process.

    ``checkpoints`` is either a count >= 1 (that many grid nodes, evenly
    spaced, ending at the horizon) or a non-empty list of grid times after 0;
    anything else would certify nothing and raises :class:`ConfigError`, and
    so does a scenario whose path count is odd or below four. The mean and
    its standard error are :func:`~xccy.simulation.sample_mean` of the
    process at each checkpoint, streamed chunk by chunk and each chunk tile
    by tile: the process's drivers are read from the store when the scenario
    is stored, and otherwise simulated one tile at a time into a ring buffer
    and not kept (:meth:`~xccy.simulation.ScenarioSet.map_tiles`), so the
    memory grows neither with the path count nor with the step count. z is
    the mean over the larger of its standard error and its rounding error,
    (j + 2) eps (1 + 2 RATE_BOUND t) of the level at node j: one rounding per
    step of a log at most 2 RATE_BOUND t in size, and a few for the
    exponentials and account ratios. A deterministic process (a zero-volatility FX pair) thus passes.
    The domestic FX process is identically 0 and is not simulated over: its
    mean and standard error are 0 at every checkpoint.
    A threshold that is not finite and positive raises :class:`ConfigError`
    (:func:`check_threshold`), and a mean or standard error that is not
    finite raises :class:`NumericalError` (:func:`~xccy.simulation.check_finite_estimate`).
    """
    return _run_tests(scenario, [process_id], checkpoints, threshold)[0]


def run_martingale_suite(
    scenario: ScenarioSet, checkpoints: int | list[float] = 4, threshold: float | None = 3.0
) -> list[TestReport]:
    """One test per certifiable process, per asset then per currency, from one pass over the chunks.

    Every test is :func:`martingale_test`'s, bit for bit; the suite streams
    the chunks once for all of them, reading every driver, and keeps no paths.
    A ``threshold`` bounds each z-test on its own, so the chance that some
    test of a drift-free model fails grows with the family. ``None`` bounds
    the family instead: every test is gated by :func:`family_threshold` over
    all the suite's checkpoints, so the family fails by chance at a rate of
    at most :data:`FALSE_ALARM`.
    """
    model = scenario.model
    ids = [f"asset:{a.label}" for a in model.assets] + [f"fx:{c}" for c in model.currency_names]
    return _run_tests(scenario, ids, checkpoints, threshold)


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


def reduction_suite(model: ValidatedModel, n_paths: int = 2000, seed: int = 7) -> SuiteReport:
    """Single-currency consistency checks; the model must have exactly one currency."""
    if len(model.currencies) != 1:
        raise ConfigError("reduction suite requires a single-currency model")
    check_error_bar_paths(n_paths)
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
            realized = -coll.c[:, :-1] * np.diff(scenario.fx(spec.currency), axis=1)
            weight = _fx_leg_weight(model, spec, grid.times)
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
    # the mean of the flows, taken chunk by chunk as the price takes it
    flows = discounted_flows(scenario, contract)
    bare = -float(combine_moments((c.stop - c.start, np.mean(flows[c]), 0.0) for c in chunk_columns(n_paths))[0])
    checks.append(
        SuiteCheck(
            name="uncollateralized-price-reduction",
            passed=report.leg_collateral == 0.0 and report.price == bare,
            detail=f"price {report.price!r} vs bare flow expectation {bare!r}",
        )
    )
    return SuiteReport(checks=tuple(checks))
