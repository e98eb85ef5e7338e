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

Paths are simulated in fixed chunks of ``CHUNK_PATHS`` whose boundaries do
not depend on the worker count. Each chunk draws its normals from its own
Philox stream (see :mod:`xccy.rng`), mixes them and steps them (one
cumulative sum of log-increments, one ``exp``) straight into one time-major
array of shape (n_drivers, n_times, n_paths). Antithetic pairs are the only
sampling scheme: path p of a chunk is driven by row p // 2 of the chunk's
normals with sign (-1)**p, so paths 2i and 2i + 1 are twins with negated
normals. ``CHUNK_PATHS`` is even, so no pair spans two chunks or two
workers, and an odd ragged last chunk draws a prefix of a full chunk's rows,
its last path without a twin. Every error bar is taken over the pair means
(:func:`sample_mean`), the independent samples; an error bar needs an even
path count of at least four (:func:`check_error_bar_paths`), while
:func:`simulate` accepts any count of at least one. Every consumer reads time
slices across paths (a regression slice, a martingale checkpoint), and in
this layout each slice is one contiguous row. A scenario is a pure function
of (model, grid, n_paths, seed) and ``CHUNK_PATHS``, byte-identical for any
worker count. A :class:`ScenarioSet` is that array with its model, grid, seed
and measure tag; its unsecured and repo accounts are not stored but derived
from the curves by :func:`~xccy.curves.cash_account_value`, the one
definition of B(t).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .csvio import write_rows
from .curves import RateCurve, cash_account_value
from .errors import ConfigError, EmptyGrid, ZeroPaths
from .model import FxSpec, ValidatedModel, fx_label
from .rng import normal_block

GRID_SNAP_TOL = 1e-9
# paths per simulation chunk: fixed, so results do not depend on the worker count,
# and even, so no antithetic pair spans two chunks
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

    def nodes_of(self, times) -> np.ndarray:
        """Grid index of each entry of ``times``; a time off the grid raises :class:`ConfigError`."""
        times = np.asarray(times, dtype=float).reshape(-1)
        nodes = np.abs(self.times[:, None] - times).argmin(axis=0)
        off = np.abs(self.times[nodes] - times) > GRID_SNAP_TOL
        if off.any():
            raise ConfigError(f"time {times[off][0]} is not a grid node")
        return nodes


@dataclass(frozen=True)
class ScenarioSet:
    """Simulated paths on a grid, with the cash accounts derived from the model's curves.

    ``paths`` is the time-major (n_drivers, n_times, n_paths) array that
    :func:`simulate` fills, in ``model.driver_labels`` order; :meth:`driver`
    serves a driver as the (n_paths, n_times) view ``paths[d].T``, whose column
    j (time j across paths) is contiguous. The domestic FX path is identically
    one, served by :meth:`fx` as a read-only broadcast view. :meth:`account`
    and :meth:`repo_account` are :func:`cash_account_value` of a currency's
    unsecured curve or an asset's repo curve on the grid.
    """

    model: ValidatedModel
    grid: TimeGrid
    seed: int
    paths: np.ndarray
    measure_tag: str = "qe"  # "p" when drifts were shifted away from the martingale measure

    @property
    def n_paths(self) -> int:
        return self.paths.shape[2]

    def driver(self, label: str) -> np.ndarray:
        """Paths of the driver named by one of ``model.driver_labels``, a view of ``paths``."""
        self.model.driver_spec(label)  # ConfigError for a label that names no driver
        return self.paths[self.model.driver_labels.index(label)].T

    def fx(self, currency: str) -> np.ndarray:
        if currency == self.model.domestic:
            # read-only view of one scalar: allocates no (n_paths, n_times) buffer
            return np.broadcast_to(1.0, (self.n_paths, len(self.grid.times)))
        return self.driver(fx_label(currency))  # UnknownCurrency for a currency without an FX pair

    def asset(self, label: str) -> np.ndarray:
        self.model.asset(label)  # ConfigError for a label that names no asset
        return self.driver(label)

    def account(self, currency: str) -> np.ndarray:
        """Unsecured cash account of ``currency`` on the grid."""
        return cash_account_value(self.model.curve(currency, "unsecured"), self.grid.times)

    def repo_account(self, label: str) -> np.ndarray:
        """Repo account of the asset ``label`` on the grid."""
        return cash_account_value(self.model.asset(label).repo_rate, self.grid.times)


def check_error_bar_paths(n_paths: int) -> None:
    """Raise :class:`ConfigError` unless ``n_paths`` is an even count >= 4.

    Paths come in antithetic pairs and an error bar is the spread of the pair
    means (:func:`sample_mean`), so it needs whole pairs, and at least two of
    them: the spread of one pair mean is undefined.
    """
    if n_paths < 4 or n_paths % 2:
        raise ConfigError(
            "a Monte Carlo error bar needs an even count of at least 4 paths "
            f"(two antithetic pairs), got {n_paths}"
        )


def fold_sample_mean(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the pair means of consecutive path blocks, folded in order.

    Each block holds an even number of paths along its last axis, whole
    antithetic pairs; its k pair means are reduced to their mean and sum of
    squared deviations M2, and (k, mean, M2) is combined with the running
    statistics by the pairwise update of Chan, Golub and LeVeque (1983). A
    block is consumed before the next is drawn, so a caller may yield one
    reused buffer. The result is the mean of the pair means and
    their sample standard deviation over sqrt(k); over one block it is
    ``mean`` and ``std(ddof=1) / sqrt(k)`` of the pair means bit for bit.
    """
    count = 0
    for block in blocks:
        # numpy's own mean and var arithmetic, so M2 / (k - 1) is var(ddof=1) bit for bit
        pairs = 0.5 * (block[..., 0::2] + block[..., 1::2])
        k, m = pairs.shape[-1], pairs.mean(axis=-1)
        pairs -= m[..., None]
        pairs *= pairs
        m2_block = pairs.sum(axis=-1)
        if count == 0:
            mean, m2 = m, m2_block
        else:
            delta = m - mean
            mean = mean + delta * (k / (count + k))
            m2 = m2 + m2_block + delta * delta * (count * k / (count + k))
        count += k
    return mean, np.sqrt(m2 / (count - 1)) / math.sqrt(count)


def sample_mean(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the last (path) axis and its standard error: every error bar in the engine.

    Paths 2i and 2i+1 are antithetic twins (see :func:`_simulate_chunk`), so
    they are not independent: each adjacent pair is first reduced to its
    mean, and the result is the mean of the n/2 pair means with their sample
    standard deviation over sqrt(n/2). The paths are taken in the
    ``CHUNK_PATHS`` column blocks of the simulation chunks and folded in
    chunk order by :func:`fold_sample_mean`, the reduction the streamed
    martingale test feeds chunk by chunk, so both give the same bits; with at
    most ``CHUNK_PATHS`` paths the result is ``mean`` and
    ``std(ddof=1) / sqrt(n/2)`` of the pair means bit for bit. A path count
    that is odd or below four raises :class:`ConfigError`; callers that
    simulate check it first with :func:`check_error_bar_paths`.
    """
    samples = np.asarray(samples)
    n_paths = samples.shape[-1]
    check_error_bar_paths(n_paths)
    return fold_sample_mean(samples[..., lo : lo + CHUNK_PATHS] for lo in range(0, n_paths, CHUNK_PATHS))


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
    block: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    x0: np.ndarray,
    chunk: int,
) -> None:
    """Write the paths of simulation chunk ``chunk`` into the time-major ``block``.

    ``block`` is any (n_drivers, n_times, count) array, a slice of a whole
    scenario or a reused buffer, and receives the chunk's first ``count``
    paths. Paths come in antithetic pairs: path p reads row p // 2 of the
    chunk's normals with sign (-1)**p, so only ceil(count / 2) rows are drawn,
    and with an odd ``count`` the last path has no twin. The mixed shock of
    driver d over step j, m = sum_k vol[d, k, j] z_k, is summed once per pair
    in a fixed driver order rather than by a BLAS product, so each path's
    value does not depend on the chunking; the log-increment is
    drift[d, j] + m on the even path and drift[d, j] - m on the odd one, which
    is bit for bit the mixing of the negated normals. The drawn rows are
    transposed once to (step, driver, pair), so each (step, driver) is a
    contiguous row, and the scratch memory beyond them is two (n_steps, pairs)
    buffers. The cumulative sum over time is a loop that adds each time row to
    the next: numpy's accumulate is slow along an axis that is not innermost,
    and a cumulative sum is sequential either way, so the bits are those of
    ``np.cumsum``.
    """
    n_drivers, n_times, count = block.shape
    half = count - count // 2
    mixed = np.empty((n_times - 1, half))  # m of one driver, one row per step
    term = np.empty_like(mixed)
    # the normals come after the scratch buffers, so freeing them releases the top of
    # the heap; drawn first, they left ~18 MB of freed heap resident per BSDE run
    z = normal_block(seed, chunk, half, n_times - 1, n_drivers)
    z = np.ascontiguousarray(z.reshape(half, -1).T).reshape(n_times - 1, n_drivers, half)
    block[:, 0] = 0.0
    for d in range(n_drivers):
        mixed.fill(0.0)
        for k in range(n_drivers):
            if vol[d, k].any():  # skip zero entries of the mixing matrix
                np.multiply(vol[d, k, :, None], z[:, k], out=term)
                mixed += term
        np.add(drift[d, :, None], mixed, out=block[d, 1:, 0::2])
        np.subtract(drift[d, :, None], mixed[:, : count // 2], out=block[d, 1:, 1::2])
    for j in range(1, n_times):
        np.add(block[:, j - 1], block[:, j], out=block[:, j])
    np.exp(block, out=block)
    block *= x0[:, None, None]


def _step_coefficients(
    model: ValidatedModel, grid: TimeGrid, drift_shift: dict[str, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run's (drift, vol, x0) for :func:`_simulate_chunk`.

    drift[d, j] is driver d's log-drift over step j, vol[d, k, j] the weight of
    normal k in it, x0[d] the initial level. A ``drift_shift`` key that names
    no driver raises :class:`ConfigError`.
    """
    unknown = sorted(set(drift_shift) - set(model.driver_labels))
    if unknown:
        raise ConfigError(f"drift_shift names no driver: {unknown}; drivers: {list(model.driver_labels)}")
    specs = [model.driver_spec(label) for label in model.driver_labels]
    sigmas = np.array([spec.sigma for spec in specs])
    x0 = np.array([spec.x0 if isinstance(spec, FxSpec) else spec.s0 for spec in specs])
    drift = _drift_integrals(model, grid, drift_shift) - 0.5 * np.outer(sigmas**2, grid.dt)
    vol = model.mixing[:, :, None] * np.outer(sigmas, np.sqrt(grid.dt))[:, None, :]
    return drift, vol, x0


def simulate(
    model: ValidatedModel,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    drift_shift: dict[str, float] | None = None,
    n_workers: int = 1,
) -> ScenarioSet:
    """Generate a ScenarioSet.

    ``drift_shift`` adds a constant per-year drift bump to drivers named by
    ``model.driver_labels``, for diagnostics negative controls; a scenario
    with a non-zero shift is tagged ``"p"`` and pricing refuses it. A key
    that names no driver raises :class:`ConfigError`. Paths are simulated in
    chunks of ``CHUNK_PATHS`` on at most :func:`worker_threads` threads.
    """
    if n_paths < 1:
        raise ZeroPaths(f"n_paths={n_paths}")
    n_chunks = -(-n_paths // CHUNK_PATHS)
    n_threads = worker_threads(n_workers, n_chunks)
    drift_shift = drift_shift or {}
    drift, vol, x0 = _step_coefficients(model, grid, drift_shift)

    paths = np.empty((len(x0), len(grid.times), n_paths))

    def fill(chunk: int) -> None:
        block = paths[:, :, chunk * CHUNK_PATHS : (chunk + 1) * CHUNK_PATHS]
        _simulate_chunk(block, seed, drift, vol, x0, chunk)

    if n_threads == 1:
        for chunk in range(n_chunks):
            fill(chunk)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(fill, range(n_chunks)))

    return ScenarioSet(
        model=model,
        grid=grid,
        seed=seed,
        paths=paths,
        measure_tag="p" if any(drift_shift.values()) else "qe",
    )


def dump_paths_csv(scenario: ScenarioSet, path: str) -> None:
    """Columnar dump: path_id, time, driver_label, value."""
    path_ids = np.arange(scenario.n_paths)[:, None]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,driver_label,value\n")
        for label in scenario.model.driver_labels:
            write_rows(fh, path_ids, scenario.grid.times, label, scenario.driver(label))
