"""Correlated path generation under the domestic martingale measure.

Assets and FX rates are lognormal with piecewise-constant coefficients, so
each step is the exact transition density: state * exp(integrated drift -
sigma^2 dt / 2 + sigma sqrt(dt) xi). Under the domestic measure an asset
drifts at its repo rate minus its dividend yield, with a quanto correction
-rho * sigma_S * sigma_X for assets quoted in a foreign currency; an FX rate
drifts at the unsecured rate differential. Those drifts are what make the
discounted funding-gain process of every asset, and X * B_f / B_dom for every
currency, empirical martingales (the diagnostics module certifies this).

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
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DomesticPairRequested, EmptyGrid, ZeroPaths
from .model import AssetSpec, ValidatedModel, fx_label
from .rng import normal_block

GRID_SNAP_TOL = 1e-9
# paths per simulation chunk: fixed, so results do not depend on the worker count
CHUNK_PATHS = 8192


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
    measure_tag: str = "qe"
    drift_shift: dict[str, float] = field(default_factory=dict)

    def fx(self, currency: str) -> np.ndarray:
        if currency == self.model.domestic:
            # read-only view of one scalar: allocates no (n_paths, n_times) buffer
            return np.broadcast_to(1.0, (self.n_paths, len(self.grid.times)))
        return self.fx_paths[currency]

    def asset(self, label: str) -> np.ndarray:
        return self.asset_paths[label]

    def account(self, currency: str, role: str = "unsecured") -> np.ndarray:
        key = (role, currency)
        if key not in self.account_values:
            raise ConfigError(f"account {key} not materialized on scenario")
        return self.account_values[key]


def qe_asset_drift(model: ValidatedModel, asset: AssetSpec, t) -> float | np.ndarray:
    """Drift of the asset spot under the domestic martingale measure.

    Domestic assets: repo rate minus dividend yield. Foreign assets get the
    additional quanto correction -rho(S, X) * sigma_S * sigma_X.
    """
    base = asset.repo_rate.rate(t) - asset.dividend_yield.rate(t)
    if asset.currency == model.domestic:
        return base
    fx = model.fx_spec(asset.currency)
    rho = _pair_correlation(model, asset.label, fx_label(asset.currency))
    return base - rho * asset.sigma * fx.sigma


def qe_fx_drift(model: ValidatedModel, k1: str, t) -> float | np.ndarray:
    """Drift of the FX rate (domestic per 1 unit of k1): unsecured differential."""
    if k1 == model.domestic:
        raise DomesticPairRequested(k1)
    return model.curve(model.domestic, "unsecured").rate(t) - model.curve(k1, "unsecured").rate(t)


def _pair_correlation(model: ValidatedModel, label_a: str, label_b: str) -> float:
    ia = model.driver_labels.index(label_a)
    ib = model.driver_labels.index(label_b)
    return float(model.correlation.matrix[ia, ib])


def _drift_integrals(
    model: ValidatedModel,
    grid: TimeGrid,
    drift_shift: dict[str, float],
    physical: bool = False,
) -> np.ndarray:
    """Integrated drift per (driver, step), exact for piecewise-constant rates.

    With ``physical=True`` a driver with a configured constant drift uses it
    outright instead of the martingale-measure drift.
    """
    times = grid.times
    out = np.zeros((len(model.driver_labels), grid.n_steps))
    for d, label in enumerate(model.driver_labels):
        mu = (model.fx_spec(label[3:]) if label.startswith("fx:") else model.asset(label)).mu
        if physical and mu is not None:
            out[d, :] = mu * grid.dt
        elif label.startswith("fx:"):
            r_e = model.curve(model.domestic, "unsecured")
            r_f = model.curve(label[3:], "unsecured")
            out[d, :] = r_e.step_integrals(times) - r_f.step_integrals(times)
        else:
            a = model.asset(label)
            quanto = 0.0
            if a.currency != model.domestic:
                fx = model.fx_spec(a.currency)
                quanto = _pair_correlation(model, a.label, fx_label(a.currency)) * a.sigma * fx.sigma
            out[d, :] = (
                a.repo_rate.step_integrals(times) - a.dividend_yield.step_integrals(times) - quanto * grid.dt
            )
        shift = drift_shift.get(label, 0.0)
        if shift:
            out[d, :] += shift * grid.dt
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
    measure: str = "qe",
    drift_shift: dict[str, float] | None = None,
    n_workers: int = 1,
) -> ScenarioSet:
    """Generate a ScenarioSet.

    ``measure="p"`` uses the configured physical drifts (where given) instead
    of the martingale-measure drifts; ``drift_shift`` adds a constant per-year
    drift bump to named drivers. Both exist for diagnostics negative controls;
    pricing requires the default measure. Paths are simulated in chunks of
    ``CHUNK_PATHS`` on at most :func:`worker_threads` threads.
    """
    if n_paths < 1:
        raise ZeroPaths(f"n_paths={n_paths}")
    chunks = [(a, min(a + CHUNK_PATHS, n_paths)) for a in range(0, n_paths, CHUNK_PATHS)]
    n_threads = worker_threads(n_workers, len(chunks))
    drift_shift = dict(drift_shift or {})
    if measure not in ("qe", "p"):
        raise ConfigError(f"unknown measure {measure!r}")
    drift_int = _drift_integrals(model, grid, drift_shift, physical=measure == "p")
    sigmas = np.array(
        [
            model.fx_spec(lab[3:]).sigma if lab.startswith("fx:") else model.asset(lab).sigma
            for lab in model.driver_labels
        ]
    )
    x0 = np.array(
        [
            model.fx_spec(lab[3:]).x0 if lab.startswith("fx:") else model.asset(lab).s0
            for lab in model.driver_labels
        ]
    )
    drift = drift_int - 0.5 * np.outer(sigmas**2, grid.dt)
    vol = model.mixing[:, :, None] * np.outer(sigmas, np.sqrt(grid.dt))[:, None, :]

    paths = np.empty((len(x0), n_paths, len(grid.times)))
    fill = partial(_simulate_chunk, paths, seed, drift, vol, x0)
    if n_threads == 1:
        for chunk in chunks:
            fill(chunk)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(fill, chunks))

    asset_paths = {}
    fx_paths = {}
    for d, label in enumerate(model.driver_labels):
        if label.startswith("fx:"):
            fx_paths[label[3:]] = paths[d]
        else:
            asset_paths[label] = paths[d]

    account_values: dict[tuple[str, str], np.ndarray] = {}
    for cur in model.currency_names:
        account_values[("unsecured", cur)] = np.exp(model.curve(cur, "unsecured").integrals(grid.times))
    for a in model.assets:
        account_values[("repo", a.label)] = np.exp(a.repo_rate.integrals(grid.times))

    tag = "qe" if measure == "qe" and not drift_shift else "p"
    return ScenarioSet(
        model=model,
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        asset_paths=asset_paths,
        fx_paths=fx_paths,
        account_values=account_values,
        measure_tag=tag,
        drift_shift=drift_shift,
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,driver_label,value\n")
        times = [float(t) for t in scenario.grid.times]
        for label in scenario.model.driver_labels:
            series = (
                scenario.fx_paths[label[3:]] if label.startswith("fx:") else scenario.asset_paths[label]
            )
            for p in range(scenario.n_paths):
                for j, t in enumerate(times):
                    fh.write(f"{p},{t!r},{label},{float(series[p, j])!r}\n")
