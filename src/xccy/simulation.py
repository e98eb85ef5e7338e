"""Correlated path generation under the domestic martingale measure.

Assets and FX rates are lognormal with piecewise-constant coefficients, so
each step is the exact transition density: state * exp(integrated drift -
sigma^2 dt / 2 + sigma sqrt(dt) xi). Under the domestic measure an asset
drifts at its repo rate minus its dividend yield, with a quanto correction
-rho * sigma_S * sigma_X for assets quoted in a foreign currency; an FX rate
drifts at the unsecured rate differential. :func:`qe_drift_of` is the one
definition of these drifts, instantaneous or integrated per step. They are
what make the discounted funding-gain process of every asset, and
X * B_f / B_dom for every currency, empirical martingales (the diagnostics
module certifies this). The only departure from this measure is a constant
``drift_shift`` per driver, the diagnostics negative control.

Randomness is counter-based (see :mod:`xccy.rng`): a scenario is a pure
function of (model, grid, n_paths, seed). Paths are simulated in fixed chunks
of ``CHUNK_PATHS`` whose boundaries do not depend on the worker count; each
chunk draws its normals, mixes them and steps them (one cumulative sum of
log-increments, one ``exp``) straight into one driver-major array of shape
(n_drivers, n_paths, n_times), so the scenario is byte-identical for any
worker count.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .csvio import write_rows
from .curves import RateCurve
from .errors import ConfigError, EmptyGrid, ZeroPaths
from .model import AssetSpec, FxSpec, ValidatedModel, fx_label
from .rng import normal_block

GRID_SNAP_TOL = 1e-9
# paths per simulation chunk: fixed, so results do not depend on the worker count
CHUNK_PATHS = 8192
UNIT_RATE = RateCurve.flat(1.0)  # integrates to the elapsed time, bit for bit grid.dt


@dataclass(frozen=True)
class TimeGrid:
    """Strictly ascending times in years, starting at 0."""

    times: np.ndarray

    def __init__(self, times):
        times = np.asarray(times, dtype=float)
        if times.size < 2:
            raise EmptyGrid("grid needs at least two times")
        if times[0] != 0.0:
            raise EmptyGrid(f"grid must start at 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise EmptyGrid("grid times must be strictly ascending")
        object.__setattr__(self, "times", times)

    @classmethod
    def regular(cls, horizon: float, n_steps: int, include=()) -> "TimeGrid":
        """Uniform grid with extra dates snapped in exactly.

        A date within ``GRID_SNAP_TOL`` of an existing node replaces that
        node, so contract flow dates always appear verbatim on the grid.
        """
        if horizon <= 0 or n_steps < 1:
            raise EmptyGrid(f"bad horizon/steps: {horizon}, {n_steps}")
        times = list(np.linspace(0.0, horizon, n_steps + 1))
        for t in include:
            t = float(t)
            if t < 0 or t > horizon + GRID_SNAP_TOL:
                raise ConfigError(f"date {t} outside [0, {horizon}]")
            j = int(np.argmin(np.abs(np.asarray(times) - t)))
            if abs(times[j] - t) <= GRID_SNAP_TOL:
                times[j] = t
            else:
                times.append(t)
        return cls(np.array(sorted(times)))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    def index_of(self, t: float) -> int:
        j = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[j] - t) > GRID_SNAP_TOL:
            raise ConfigError(f"time {t} is not a grid node")
        return j


@dataclass(frozen=True)
class ScenarioSet:
    """Simulated paths plus the deterministic cash accounts on the grid.

    ``asset_paths[label]`` and ``fx_paths[currency]`` hold (n_paths, n_times)
    arrays, each a contiguous view of the driver-major path array;
    ``account_values[(role, currency)]`` holds the deterministic cash account
    B(t) on the grid. The domestic FX path is identically one and is served by
    :meth:`fx` as a read-only broadcast view, without being stored.
    """

    model: ValidatedModel
    grid: TimeGrid
    n_paths: int
    seed: int
    asset_paths: dict[str, np.ndarray]
    fx_paths: dict[str, np.ndarray]
    account_values: dict[tuple[str, str], np.ndarray]
    measure_tag: str = "qe"  # "p" when drifts were shifted away from the martingale measure

    def fx(self, currency: str) -> np.ndarray:
        if currency == self.model.domestic:
            # read-only view of one scalar: allocates no (n_paths, n_times) buffer
            return np.broadcast_to(1.0, (self.n_paths, len(self.grid.times)))
        return self.fx_paths[currency]

    def asset(self, label: str) -> np.ndarray:
        return self.asset_paths[label]

    def driver(self, label: str) -> np.ndarray:
        """Paths of the driver named by one of ``model.driver_labels``."""
        spec = self.model.driver_spec(label)
        return self.fx(spec.foreign) if isinstance(spec, FxSpec) else self.asset(label)

    def account(self, currency: str, role: str = "unsecured") -> np.ndarray:
        key = (role, currency)
        if key not in self.account_values:
            raise ConfigError(f"account {key} not materialized on scenario")
        return self.account_values[key]


def qe_drift_of(model: ValidatedModel, label: str, integrate, shift: float = 0.0):
    """Drift of one driver under the domestic measure, as a combination of ``integrate(curve)``.

    An asset drifts at its repo rate minus its dividend yield, less the quanto
    correction rho(S, X) * sigma_S * sigma_X when it is quoted in a foreign
    currency; an FX rate drifts at the unsecured differential. The quanto term
    and the per-year ``shift`` (a negative control) are constants, integrated
    as ``integrate(UNIT_RATE)``. With ``lambda c: c.rate(t)`` this is the
    instantaneous drift at t; with ``lambda c: c.step_integrals(times)`` the
    exact integral over each step.
    """
    spec = model.driver_spec(label)
    if isinstance(spec, FxSpec):
        r_dom = model.curve(model.domestic, "unsecured")
        drift = integrate(r_dom) - integrate(model.curve(spec.foreign, "unsecured"))
    else:
        quanto = 0.0
        if spec.currency != model.domestic:
            rho = _pair_correlation(model, label, fx_label(spec.currency))
            quanto = rho * spec.sigma * model.fx_spec(spec.currency).sigma
        drift = integrate(spec.repo_rate) - integrate(spec.dividend_yield) - quanto * integrate(UNIT_RATE)
    if shift:
        drift = drift + shift * integrate(UNIT_RATE)
    return drift


def _pair_correlation(model: ValidatedModel, label_a: str, label_b: str) -> float:
    ia = model.driver_labels.index(label_a)
    ib = model.driver_labels.index(label_b)
    return float(model.correlation.matrix[ia, ib])


def _drift_integrals(model: ValidatedModel, grid: TimeGrid, drift_shift: dict[str, float]) -> np.ndarray:
    """Integrated drift per (driver, step), exact for piecewise-constant rates."""

    def step_integrals(curve):
        return curve.step_integrals(grid.times)

    out = np.empty((len(model.driver_labels), grid.n_steps))
    for d, label in enumerate(model.driver_labels):
        out[d] = qe_drift_of(model, label, step_integrals, drift_shift.get(label, 0.0))
    return out


def worker_threads(n_workers: int, n_chunks: int) -> int:
    """Threads to start: the requested workers, capped by the CPUs and by the chunks."""
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    return min(n_workers, os.cpu_count() or 1, n_chunks)


def _simulate_chunk(
    paths: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    x0: np.ndarray,
    chunk: tuple[int, int],
) -> None:
    """Write paths ``start .. stop - 1`` of ``chunk`` into the driver-major ``paths``.

    The log-increment of driver d over step j is drift[d, j] plus
    sum_k vol[d, k, j] z_k, accumulated in a fixed driver order rather than by
    a BLAS product, so each path's value does not depend on the chunking.
    """
    start, stop = chunk
    n_drivers, _, n_times = paths.shape
    z = normal_block(seed, start, stop - start, n_times - 1, n_drivers)
    for d in range(n_drivers):
        logs = paths[d, start:stop]
        logs[:, 0] = 0.0
        logs[:, 1:] = drift[d]
        for k in range(n_drivers):
            if vol[d, k].any():  # skip zero entries of the mixing matrix
                logs[:, 1:] += vol[d, k] * z[:, :, k]
        np.cumsum(logs, axis=1, out=logs)
        np.exp(logs, out=logs)
        logs *= x0[d]


def simulate(
    model: ValidatedModel,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    drift_shift: dict[str, float] | None = None,
    n_workers: int = 1,
) -> ScenarioSet:
    """Generate a ScenarioSet.

    ``drift_shift`` adds a constant per-year drift bump to named drivers, for
    diagnostics negative controls; the shifted scenario is tagged ``"p"`` and
    pricing refuses it. Paths are simulated in chunks of ``CHUNK_PATHS`` on at
    most :func:`worker_threads` threads.
    """
    if n_paths < 1:
        raise ZeroPaths(f"n_paths={n_paths}")
    chunks = [(a, min(a + CHUNK_PATHS, n_paths)) for a in range(0, n_paths, CHUNK_PATHS)]
    n_threads = worker_threads(n_workers, len(chunks))
    drift_shift = drift_shift or {}
    specs = [model.driver_spec(label) for label in model.driver_labels]
    sigmas = np.array([spec.sigma for spec in specs])
    x0 = np.array([spec.x0 if isinstance(spec, FxSpec) else spec.s0 for spec in specs])
    drift = _drift_integrals(model, grid, drift_shift) - 0.5 * np.outer(sigmas**2, grid.dt)
    vol = model.mixing[:, :, None] * np.outer(sigmas, np.sqrt(grid.dt))[:, None, :]

    paths = np.empty((len(x0), n_paths, len(grid.times)))
    fill = partial(_simulate_chunk, paths, seed, drift, vol, x0)
    if n_threads == 1:
        for chunk in chunks:
            fill(chunk)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(fill, chunks))

    asset_paths = {spec.label: paths[d] for d, spec in enumerate(specs) if isinstance(spec, AssetSpec)}
    fx_paths = {spec.foreign: paths[d] for d, spec in enumerate(specs) if isinstance(spec, FxSpec)}

    account_values: dict[tuple[str, str], np.ndarray] = {}
    for cur in model.currency_names:
        account_values[("unsecured", cur)] = np.exp(model.curve(cur, "unsecured").integrals(grid.times))
    for a in model.assets:
        account_values[("repo", a.label)] = np.exp(a.repo_rate.integrals(grid.times))

    return ScenarioSet(
        model=model,
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        asset_paths=asset_paths,
        fx_paths=fx_paths,
        account_values=account_values,
        measure_tag="p" if drift_shift else "qe",
    )


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


def dump_paths_csv(scenario: ScenarioSet, path: str) -> None:
    """Columnar dump: path_id, time, driver_label, value."""
    path_ids = np.arange(scenario.n_paths)[:, None]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,driver_label,value\n")
        for label in scenario.model.driver_labels:
            write_rows(fh, path_ids, scenario.grid.times, label, scenario.driver(label))
