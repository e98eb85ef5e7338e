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

Paths are simulated in fixed chunks of ``CHUNK_PATHS`` whose boundaries,
:func:`chunk_columns`, do not depend on the worker count; :func:`run_chunks`
is the one threaded chunk loop, thread i of T taking every T-th chunk from
the i-th. Each chunk draws its normals from its own SFC64 stream, read
time-major (see :mod:`xccy.rng`), and goes through two steps straight into
one time-major array of shape (n_drivers, n_times, n_paths): the log-path
kernel :func:`_simulate_log_chunk` draws the normals in cache-sized tiles of
steps, mixes each tile with one ``np.einsum`` call (a k-ordered sum, not
BLAS), and sums the log-increments over time into log(S / x0), and the level
step (one ``exp``, one product with x0) turns them into levels.
The endogenous-collateral solver regresses on the log-paths and runs the
kernel alone. Antithetic pairs are the only sampling scheme: path p of a
chunk is driven by pair p // 2 of the chunk's normals with sign (-1)**p, so
paths 2i and 2i + 1 are twins with negated normals. ``CHUNK_PATHS`` is even,
so no pair spans two chunks or two workers; a ragged last chunk draws the
time-major normals of its own width, not a prefix of a full chunk's, and
when its width is odd its last path has no twin. Every error bar is taken over the pair means
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
from .rng import chunk_stream, normal_block

GRID_SNAP_TOL = 1e-9
# paths per simulation chunk: fixed, so results do not depend on the worker count,
# and even, so no antithetic pair spans two chunks
CHUNK_PATHS = 8192
# bytes of the normals and mixed rows of one mixing tile, 2 * n_drivers rows per step:
# half of a 2 MB L2 cache
TILE_BYTES = 1 << 20
UNIT_RATE = RateCurve.flat(1.0)  # integrates to the elapsed time, bit for bit grid.dt


@dataclass(frozen=True)
class TimeGrid:
    """Strictly ascending times in years, starting at 0."""

    times: np.ndarray

    def __init__(self, times):
        times = np.asarray(times, dtype=float)
        if times.size < 2:
            raise EmptyGrid("grid needs at least two times")
        if not np.all(np.isfinite(times)):
            raise EmptyGrid(f"grid times must be finite, got {times.tolist()}")
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
        if not 0 < horizon < math.inf or n_steps < 1:
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
    return fold_sample_mean(samples[..., cols] for cols in chunk_columns(n_paths))


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
            labels = model.driver_labels
            rho = float(model.correlation.matrix[labels.index(label), labels.index(fx_label(spec.currency))])
            quanto = rho * spec.sigma * model.fx_spec(spec.currency).sigma
        drift = integrate(spec.repo_rate) - integrate(spec.dividend_yield) - quanto * integrate(UNIT_RATE)
    if shift:
        drift = drift + shift * integrate(UNIT_RATE)
    return drift


def worker_threads(n_workers: int, n_chunks: int) -> int:
    """Threads to start: the requested workers, capped by the CPUs and by the chunks."""
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    return min(n_workers, os.cpu_count() or 1, n_chunks)


def chunk_columns(n_paths: int) -> list[slice]:
    """The path columns of each simulation chunk: ``CHUNK_PATHS`` wide, the last one ragged."""
    return [slice(lo, min(lo + CHUNK_PATHS, n_paths)) for lo in range(0, n_paths, CHUNK_PATHS)]


def run_chunks(work, chunks, n_workers: int) -> None:
    """Run ``work(chunks[i::T])`` on thread i of T = :func:`worker_threads` threads.

    ``chunks`` are indices into :func:`chunk_columns`; each share is in order,
    so ``work`` may reuse one buffer across it. With one thread, or no chunk,
    ``work`` runs on the caller's thread. An exception in ``work`` is raised here.
    """
    chunks = list(chunks)
    n_threads = worker_threads(n_workers, len(chunks))
    if n_threads <= 1:
        work(chunks)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(work, [chunks[i::n_threads] for i in range(n_threads)]))


def _simulate_log_chunk(
    block: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    chunk: int,
) -> None:
    """Write the log-paths log(S / x0) of simulation chunk ``chunk`` into the time-major ``block``.

    ``block`` is any (n_drivers, n_times, count) array, a slice of a whole
    scenario or a reused buffer, and receives the chunk's ``count`` paths;
    ``count`` is the chunk's width, which sets the order of its normals. Paths
    come in antithetic pairs: path p reads pair p // 2 of the chunk's normals
    with sign (-1)**p, so only pairs = ceil(count / 2) normals are drawn per
    step and driver, and with an odd ``count`` the last path has no twin. The
    mixed shock of driver d over step j, m = sum_k vol[d, k, j] z_k, is summed
    once per pair in driver order k = 0, 1, ... rather than by a BLAS product,
    so each path's value does not depend on the tiling; the log-increment is
    drift[d, j] + m on the even path and drift[d, j] - m on the odd one, which
    is bit for bit the mixing of the negated normals. The mixing runs in tiles
    of consecutive steps whose normals and mixed rows, 2 * n_drivers rows per
    step, fit ``TILE_BYTES``. Each tile's normals are drawn from the chunk's
    stream (:func:`normal_block`) just before they are mixed, time-major as
    (tile steps, n_drivers, pairs) into one tile-sized buffer, so each (step,
    driver) is a contiguous row and no drawn normal is ever transposed or
    copied. One ``np.einsum("dkj,jkp->djp", ...)`` call mixes the whole tile
    into an (n_drivers, tile steps, pairs) buffer, and one ``np.add`` and one
    ``np.subtract`` write both antithetic halves of every driver. numpy's
    c_einsum (``optimize=False``, so never BLAS) adds one product per k, in k
    order, to each output element. On a tile of one pair its default
    iteration would reduce over k innermost, in another order, so such tiles
    pass ``order="F"``, which keeps k outermost; that order costs 17 to 25
    times as much on a full tile, but on a one-pair tile the call's fixed cost
    dominates. The tiles read the stream in order, so the normals, and every
    element's operations and their order, are the same for any tile size. A
    numpy build whose einsum fuses the multiply and add (aarch64 NEON, say)
    may differ in the last bit, as the BSDE's BLAS regression and a SIMD
    ``exp`` already can; results stay identical for any worker count. The
    cumulative sum over time adds each time row to the next, over time-row
    views built once, as each tile is written: numpy's accumulate is slow
    along an axis that is not innermost, and a cumulative sum is sequential
    either way, so the bits are those of ``np.cumsum``.
    """
    n_drivers, n_times, count = block.shape
    n_steps, half = n_times - 1, count - count // 2
    tile = min(n_steps, max(1, TILE_BYTES // (2 * max(n_drivers, 1) * half * 8)))
    # one tile's normals, not a whole chunk's: on a 100k-path, 50-step, 3-driver BSDE solve this
    # took the solver's own peak RSS from 101 to 90 MB (one worker)
    z = np.empty((tile, n_drivers, half))
    mixed = np.empty((n_drivers, tile, half))  # m of every driver, one row per step
    # one pair: einsum's default iteration would sum over k innermost, in another order
    order = "F" if half == 1 else "K"
    stream = chunk_stream(seed, chunk)
    block[:, 0] = 0.0
    rows = list(block.transpose(1, 0, 2))
    for lo in range(0, n_steps, tile):
        hi = min(lo + tile, n_steps)
        steps = slice(lo, hi)
        zs = normal_block(stream, z[: hi - lo])
        m = mixed[:, : hi - lo]
        np.einsum("dkj,jkp->djp", vol[:, :, steps], zs, out=m, order=order, optimize=False)
        np.add(drift[:, steps, None], m, out=block[:, 1 + lo : 1 + hi, 0::2])
        np.subtract(drift[:, steps, None], m[:, :, : count // 2], out=block[:, 1 + lo : 1 + hi, 1::2])
        for j in range(1 + lo, 1 + hi):  # the tile's rows are still in cache
            np.add(rows[j - 1], rows[j], out=rows[j])


def _simulate_chunk(
    block: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    x0: np.ndarray,
    chunk: int,
) -> None:
    """Write the paths of simulation chunk ``chunk`` into the time-major ``block``.

    The log-paths of :func:`_simulate_log_chunk` followed by the level step,
    one ``exp`` and a product with the initial levels ``x0``.
    """
    _simulate_log_chunk(block, seed, drift, vol, chunk)
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
    drift = np.empty((len(specs), grid.n_steps))
    for d, label in enumerate(model.driver_labels):
        drift[d] = qe_drift_of(model, label, lambda c: c.step_integrals(grid.times), drift_shift.get(label, 0.0))
    drift -= 0.5 * np.outer(sigmas**2, grid.dt)
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
    that names no driver raises :class:`ConfigError`. Paths are simulated
    chunk by chunk through :func:`run_chunks`.
    """
    if n_paths < 1:
        raise ZeroPaths(f"n_paths={n_paths}")
    drift_shift = drift_shift or {}
    drift, vol, x0 = _step_coefficients(model, grid, drift_shift)
    paths = np.empty((len(x0), len(grid.times), n_paths))
    columns = chunk_columns(n_paths)

    def fill(chunks: list[int]) -> None:
        for chunk in chunks:
            _simulate_chunk(paths[:, :, columns[chunk]], seed, drift, vol, x0, chunk)

    run_chunks(fill, range(len(columns)), n_workers)
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
