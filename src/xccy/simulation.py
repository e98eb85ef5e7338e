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
the i-th. The drivers are mixed from independent normal factors by the
model's lower-triangular factor (``ValidatedModel.mixing``), the FX pairs'
factors first, and each factor of each chunk draws its normals from its own
SFC64 stream, read step-major (see :mod:`xccy.rng`). A chunk goes through two
steps straight into one time-major array of shape (n_drivers, n_times,
n_paths): the log-path kernel :func:`_simulate_log_chunk` draws, in
cache-sized tiles of steps, only the factors its drivers read, mixes each
driver's factors with one ``np.einsum`` call per tile (a k-ordered sum, not
BLAS), and writes each driver on its own, summing its log-increments over
time into log(S / x0); the level step (one ``exp``, one product with x0)
turns them into levels.
The endogenous-collateral solver regresses on the log-paths and runs the
kernel alone, on the sub-model of the one FX driver its flows read
(:meth:`~xccy.model.ValidatedModel.restricted`); a sub-model with no driver
draws no normals. Antithetic pairs are the only sampling scheme: path p of a
chunk is driven by pair p // 2 of the chunk's normals with sign (-1)**p, so
paths 2i and 2i + 1 are twins with negated normals. ``CHUNK_PATHS`` is even,
so no pair spans two chunks or two workers; a ragged last chunk draws the
step-major normals of its own width, not a prefix of a full chunk's, and
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
definition of B(t). :func:`simulate` checks its inputs and computes the step
coefficients but simulates no driver and allocates no array: a driver is
simulated the first time it is read (:meth:`ScenarioSet.load`), so a price
pays only for the drivers its trade reads: their factors' normals, their
mixing and their stores. A pass draws only the factors its drivers read,
factor k of a chunk from its own stream, so a driver's bits do not depend
on which drivers are loaded, in which order or in how many passes, nor on
the drivers after it in the factor order: a model with an asset appended,
or ``model.restricted`` to a prefix of the factor order, simulates every
other driver bit for bit. A reader of several drivers loads them in one
call, one pass over the chunks. A streamed reader stores nothing: every
forward reader is a recursion in time, and :meth:`ScenarioSet.map_tiles`
hands it each chunk as consecutive time tiles, the kernel's own tiles of
steps written into a ring buffer of the drivers alone, turned into levels
there and handed over with the last level of the tile before as their first
row (:func:`_level_tiles`), or views of the store when its drivers are
already there. The reader carries its per-path state from one tile to the
next and reduces each chunk on the worker, as the martingale check does with
:func:`pair_moments` and :func:`combine_moments`. The kernel carries its own
last log level from one tile to the next, so the levels keep the bits the
store holds, and a streamed reader holds a few tiles per thread whatever the
path and step counts.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_grid
from .curves import RateCurve, cash_account_value
from .errors import ConfigError, EmptyGrid, NumericalError, ZeroPaths
from .model import FxSpec, ValidatedModel, fx_label
from .rng import chunk_stream, normal_block

GRID_SNAP_TOL = 1e-9
# paths per simulation chunk: fixed, so results do not depend on the worker count,
# and even, so no antithetic pair spans two chunks
CHUNK_PATHS = 8192
# bytes of one tile (:func:`row_tiles`, :func:`block_tiles`), the kernel's mixing tiles and the
# collateral path's tiles alike: half of a 2 MB L2 cache
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


class _StoredPaths:
    """The ``paths`` field of :class:`ScenarioSet`: set as given, read only once every driver is simulated.

    The array is kept in the instance's ``_store`` (``None`` until a scenario
    of :func:`simulate` first loads a driver); reading ``paths`` first loads
    every driver (:meth:`ScenarioSet.load`), so no reader of the whole array
    sees a row that was never simulated.
    """

    def __get__(self, scenario, owner=None):
        if scenario is None:
            raise AttributeError("paths")  # a dataclass field without a default
        scenario.load()
        return scenario._store

    def __set__(self, scenario, paths):
        scenario.__dict__["_store"] = paths


@dataclass
class _Simulation:
    """What a scenario of :func:`simulate` needs to simulate its drivers on first read."""

    drift: np.ndarray
    vol: np.ndarray
    x0: np.ndarray
    n_workers: int
    n_paths: int
    simulated: frozenset[int] = frozenset()  # rows of ``model.driver_labels``, replaced whole under ``lock``
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass(frozen=True)
class ScenarioSet:
    """Simulated paths on a grid, with the cash accounts derived from the model's curves.

    ``paths`` is the time-major (n_drivers, n_times, n_paths) array, in
    ``model.driver_labels`` order; :meth:`driver` serves a driver as the
    (n_paths, n_times) view ``paths[d].T``, whose column j (time j across
    paths) is contiguous. A scenario of :func:`simulate` simulates each driver
    the first time it is read: :meth:`load` fills the rows of the drivers it
    names, and :meth:`driver`, :meth:`fx`, :meth:`asset` and ``paths`` (which
    loads them all) call it, so a reader only ever sees simulated rows and
    the rows of unread drivers are never written. :attr:`simulated_drivers`
    names the drivers simulated so far; the store is allocated at the first
    load, so a scenario read only through :meth:`map_tiles` never holds its
    paths. A scenario built from a whole array, such as
    ``dataclasses.replace(scenario, paths=scenario.paths[:, :, a:b])``,
    counts as fully simulated. The domestic FX path is identically one, served
    by :meth:`fx` as a read-only broadcast view and by :meth:`fx_factor` as
    ``None``, so a hot reader skips its products. :meth:`account` and
    :meth:`repo_account` are :func:`cash_account_value` of a currency's
    unsecured curve or an asset's repo curve on the grid.
    """

    model: ValidatedModel
    grid: TimeGrid
    seed: int
    paths: np.ndarray = _StoredPaths()
    measure_tag: str = "qe"  # "p" when drifts were shifted away from the martingale measure
    _simulation: _Simulation | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self._simulation.n_paths if self._store is None else self._store.shape[2]

    @property
    def simulated_drivers(self) -> tuple[str, ...]:
        """The labels of the drivers simulated so far, in ``model.driver_labels`` order."""
        labels = self.model.driver_labels
        if self._simulation is None:
            return labels
        return tuple(labels[d] for d in sorted(self._simulation.simulated))

    def load(self, *labels: str) -> None:
        """Simulate the drivers named by ``labels`` (every driver if none is named) not simulated yet, in one pass.

        Each chunk is simulated into the store's columns of the chunk on the
        :func:`run_chunks` threads, drawing only the factors those drivers
        read, each from its own stream (:func:`_simulate_log_chunk`), so every
        driver keeps the bits a full simulation gives it, and a load of the FX
        rates alone draws only their factors. A reader of several drivers
        names them all in one call. A label that names no driver raises
        :class:`ConfigError`.
        """
        wanted = frozenset(self._row(label) for label in labels or self.model.driver_labels)
        simulation = self._simulation
        if simulation is None:
            return
        with simulation.lock:
            if self._store is None:  # the first load allocates the store; a streamed reader never does
                self.__dict__["_store"] = np.empty((len(simulation.x0), len(self.grid.times), simulation.n_paths))
            rows = np.array(sorted(wanted - simulation.simulated), dtype=int)
            if not rows.size:
                return
            columns = chunk_columns(simulation.n_paths)

            def run(chunks: list[int]) -> None:
                for chunk in chunks:
                    block = self._store[:, :, columns[chunk]]
                    _simulate_chunk(block, self.seed, simulation.drift, simulation.vol, simulation.x0, chunk, rows)

            run_chunks(run, range(len(columns)), simulation.n_workers)
            simulation.simulated = simulation.simulated.union(rows.tolist())

    def map_tiles(self, work, *labels: str) -> list:
        """``work(cols, tiles)`` on each simulation chunk, on the :func:`run_chunks` threads; results in chunk order.

        The chunk source of every streamed reader. ``cols`` is the chunk's
        slice of path columns and ``tiles`` yields the chunk's consecutive
        time tiles in time order, each as ``(nodes, levels)``: a slice of
        grid nodes lo .. hi, and a dict from each of ``labels`` to that
        driver's levels there, (hi - lo + 1, count) time rows. Consecutive
        tiles share their boundary node, the first starts at node 0 and the
        last ends at the horizon; a tile may be read until the next one is
        drawn or ``work`` returns, and a reader may stop drawing early. When
        the drivers are all stored, each tile is a view of the store, in
        :func:`row_tiles` of about ``TILE_BYTES`` per driver. Otherwise the
        kernel's tiles of steps are written into a ring buffer of those
        drivers alone, one per thread and reused from chunk to chunk, and
        turned into levels there (:func:`_level_tiles`), to the bits
        :meth:`load` would store; nothing is stored, and a thread holds a few
        tiles whatever the path and step counts. Only the named drivers are
        read, none if none is named. ``work`` runs on several threads at
        once, one chunk each, so it may only write what it allocates. A label
        that names no driver raises :class:`ConfigError`.
        """
        rows = np.array(sorted({self._row(label) for label in labels}), dtype=int)
        labels = [self.model.driver_labels[d] for d in rows]
        simulation = self._simulation
        stored = simulation is None or set(rows.tolist()) <= simulation.simulated
        columns = chunk_columns(self.n_paths)
        results = [None] * len(columns)

        def tiles(chunk: int, cols: slice, ring: np.ndarray):
            count = cols.stop - cols.start
            if stored:
                for steps in row_tiles(self.grid.n_steps, count * 8):
                    nodes = slice(steps.start, steps.stop + 1)
                    yield nodes, {label: self._store[d, nodes, cols] for label, d in zip(labels, rows)}
                return
            levels = _level_tiles(self.seed, simulation.drift, simulation.vol, simulation.x0, chunk, rows, count, ring)
            for nodes, tile in levels:
                yield nodes, dict(zip(labels, tile))

        def run(chunks: list[int]) -> None:
            # this thread's own ring buffer, as large as the largest ring of its chunks and reused from one to the
            # next: memory freed and taken again per chunk would be given back to the system and faulted in anew
            widths = set() if stored else {columns[chunk].stop - columns[chunk].start for chunk in chunks}
            ring = np.empty(max((math.prod(_ring_shape(simulation.vol, rows, w)) for w in widths), default=0))
            for chunk in chunks:
                results[chunk] = work(columns[chunk], tiles(chunk, columns[chunk], ring))

        run_chunks(run, range(len(columns)), 1 if simulation is None else simulation.n_workers)
        return results

    def _row(self, label: str) -> int:
        self.model.driver_spec(label)  # ConfigError for a label that names no driver
        return self.model.driver_labels.index(label)

    def driver(self, label: str) -> np.ndarray:
        """Paths of the driver named by one of ``model.driver_labels``, a view of ``paths``."""
        self.load(label)
        return self._store[self._row(label)].T

    def fx(self, currency: str) -> np.ndarray:
        x = self.fx_factor(currency)
        if x is None:  # read-only view of one scalar: allocates no (n_paths, n_times) buffer
            return np.broadcast_to(1.0, (self.n_paths, len(self.grid.times)))
        return x

    def fx_factor(self, currency: str) -> np.ndarray | None:
        """The FX rate of ``currency`` as a factor to multiply or divide by: ``None`` for the domestic currency.

        The one definition of "the domestic currency is the unit": its rate
        is identically 1, so a hot reader skips the product or quotient it
        would take with it, and x * 1.0 and x / 1.0 are x bit for bit. A
        currency without an FX pair raises :class:`UnknownCurrency`.
        """
        if currency == self.model.domestic:
            return None
        return self.driver(fx_label(currency))

    def asset(self, label: str) -> np.ndarray:
        self.model.asset(label)  # ConfigError for a label that names no asset
        return self.driver(label)

    def account(self, currency: str) -> np.ndarray:
        """Unsecured cash account of ``currency`` on the grid."""
        return cash_account_value(self.model.curve(currency, "unsecured"), self.grid.times)

    def repo_account(self, label: str) -> np.ndarray:
        """Repo account of the asset ``label`` on the grid."""
        return cash_account_value(self.model.asset(label).repo_rate, self.grid.times)


def has_error_bar(n_paths: int) -> bool:
    """Whether ``n_paths`` paths give an error bar: an even count >= 4.

    Paths come in antithetic pairs and an error bar is the spread of the pair
    means (:func:`sample_mean`), so it needs whole pairs, and at least two of
    them: the spread of one pair mean is undefined.
    """
    return n_paths >= 4 and n_paths % 2 == 0


def check_error_bar_paths(n_paths: int) -> None:
    """Raise :class:`ConfigError` unless ``n_paths`` gives an error bar (:func:`has_error_bar`)."""
    if not has_error_bar(n_paths):
        raise ConfigError(
            "a Monte Carlo error bar needs an even count of at least 4 paths "
            f"(two antithetic pairs), got {n_paths}"
        )


# an overflowing path gives an infinite mean and a NaN error bar, which the estimator's
# check_finite_estimate reports; numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def pair_moments(block: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The count k, mean and sum of squared deviations M2 of the pair means of one path block.

    The block holds an even number of paths along its last axis, whole
    antithetic pairs. numpy's own mean and var arithmetic, so M2 / (k - 1) is
    ``var(ddof=1)`` of the pair means bit for bit. A streamed reader takes
    these moments of each chunk on its worker thread and combines them in
    chunk order with :func:`combine_moments`.
    """
    pairs = 0.5 * (block[..., 0::2] + block[..., 1::2])
    k, mean = pairs.shape[-1], pairs.mean(axis=-1)
    pairs -= mean[..., None]
    pairs *= pairs
    return k, mean, pairs.sum(axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def combine_moments(moments) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the pair means, from the (k, mean, M2) of consecutive blocks, in order.

    Each triple (:func:`pair_moments`) is combined with the running
    statistics by the pairwise update of Chan, Golub and LeVeque (1983). The
    result is the mean of the pair means and their sample standard deviation
    over sqrt(k); from one block it is ``mean`` and ``std(ddof=1) / sqrt(k)``
    of the pair means bit for bit.
    """
    count = 0
    for k, m, m2_block in moments:
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
    ``CHUNK_PATHS`` column blocks of the simulation chunks: the
    :func:`pair_moments` of each block, combined in chunk order by
    :func:`combine_moments`, the two steps the streamed martingale test runs
    on its own chunks, so both give the same bits; with at most
    ``CHUNK_PATHS`` paths the result is ``mean`` and
    ``std(ddof=1) / sqrt(n/2)`` of the pair means bit for bit. A path count
    that is odd or below four raises :class:`ConfigError`; callers that
    simulate check it first with :func:`check_error_bar_paths`.
    """
    samples = np.asarray(samples)
    n_paths = samples.shape[-1]
    check_error_bar_paths(n_paths)
    return combine_moments(pair_moments(samples[..., cols]) for cols in chunk_columns(n_paths))


def check_finite_estimate(name: str, mean, std_error) -> None:
    """Raise :class:`NumericalError` naming the estimate ``name`` unless its mean and error bar are finite.

    Every Monte Carlo estimator checks its result so: an overflowing path
    gives an infinite mean and a NaN error bar, which a z-test would read as
    0 and pass, and which a JSON report could only write as non-standard
    ``Infinity`` and ``NaN``.
    """
    if not (np.isfinite(mean).all() and np.isfinite(std_error).all()):
        raise NumericalError(f"non-finite {name}: {mean} with standard error {std_error}")


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


def row_tiles(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices covering ``range(n_rows)``, each of at least one row and about ``TILE_BYTES``.

    The one tiling rule of the engine: the kernel's mixing tiles of steps, and
    the collateral path's tiles of time rows (:func:`block_tiles`), are all
    taken from it.
    """
    step = max(1, TILE_BYTES // max(row_bytes, 1))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def block_tiles(n_rows: int, n_cols: int, row_bytes: int) -> list[tuple[slice, slice]]:
    """(rows, columns) slices covering ``n_rows`` rows of ``n_cols`` columns, each about ``TILE_BYTES``.

    A row holds ``row_bytes``. Whole rows in :func:`row_tiles` while one row
    fits a tile; a wider row (a time row of more than 131,072 paths) is cut
    into column slices of about ``TILE_BYTES``, one row at a time, so no
    tile grows with the path count. The tiles run row by row and, within a
    row, column by column, so every column meets its rows in order and each
    element's operations, and their order, are those of whole-row tiles.
    """
    if row_bytes <= TILE_BYTES:
        return [(rows, slice(0, n_cols)) for rows in row_tiles(n_rows, row_bytes)]
    width = max(1, n_cols * TILE_BYTES // row_bytes)
    cols = [slice(lo, min(lo + width, n_cols)) for lo in range(0, n_cols, width)]
    return [(slice(r, r + 1), c) for r in range(n_rows) for c in cols]


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


def _kernel_tiles(vol: np.ndarray, count: int) -> tuple[list[int], list[slice]]:
    """The factors each driver of ``vol`` reads, and the kernel's tiles of steps for a chunk of ``count`` paths.

    ``vol`` holds the written drivers' weights, (n_rows, n_factors, n_steps).
    A driver reads the factors up to its last non-zero weight; a tile's
    normals and mixed row, K + 1 rows of ceil(count / 2) pairs per step for K
    the most factors a driver reads, fit ``TILE_BYTES`` (:func:`row_tiles`).
    """
    reads = [int(np.flatnonzero(weights.any(axis=1))[-1]) + 1 if weights.any() else 0 for weights in vol]
    half = count - count // 2
    return reads, row_tiles(vol.shape[2], (max(reads, default=0) + 1) * half * 8)


def _simulate_log_chunk(
    block: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    chunk: int,
    rows: np.ndarray,
) -> None:
    """Write the log-paths log(S / x0) of simulation chunk ``chunk`` into the time-major ``block``.

    The kernel :func:`_log_tiles` run to its end.
    """
    for _ in _log_tiles(block, seed, drift, vol, chunk, rows):
        pass


def _log_tiles(
    block: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    chunk: int,
    rows: np.ndarray,
    ring: bool = False,
):
    """The log-path kernel: write the log-paths log(S / x0) of chunk ``chunk``, yielding each tile's steps once written.

    ``block`` is any (n_drivers, n_times, count) array, a slice of a whole
    scenario or a reused buffer, and receives the chunk's ``count`` paths of
    the drivers ``rows`` (sorted indices into ``drift`` and ``vol``), each
    written on its own; its other rows are not written. ``count`` is the
    chunk's width, which sets the order of its normals. vol[d, k, j] is the
    weight of normal factor k in driver d over step j, lower triangular in
    the model's factor order (``ValidatedModel.mixing``), so driver d reads
    the factors up to its last non-zero weight, and the chunk draws only
    factors 0 ... K - 1, K - 1 the last factor that a written row reads;
    factor k reads its own stream, ``chunk_stream(seed, chunk, k)``. Paths
    come in antithetic pairs: path p reads pair p // 2 of each factor's
    normals with sign (-1)**p, so only pairs = ceil(count / 2) normals are
    drawn per step and factor, and with an odd ``count`` the last path has no
    twin. The mixed shock of driver d over step j, m = sum_k vol[d, k, j] z_k
    over the factors it reads, is summed once per pair in factor order
    k = 0, 1, ... rather than by a BLAS product; the log-increment is
    drift[d, j] + m on the even path and drift[d, j] - m on the odd one,
    which is bit for bit the mixing of the negated normals. A factor's bits
    do not depend on which other factors are drawn, and a driver's sum skips
    only zero weights, so each path's value depends neither on the tiling
    nor on which other drivers are written with it. The kernel runs in tiles
    of consecutive steps (:func:`_kernel_tiles`) whose normals and mixed row,
    K + 1 rows per step, fit ``TILE_BYTES``. Each tile's normals are drawn
    just before they are mixed, one :func:`normal_block` call per factor
    into the factor-major (K, tile steps, pairs) buffer, so each factor's
    tile is contiguous and its stream is read in (step, pair) order. Then one
    ``np.einsum("kj,kjp->jp", ...)`` call per driver mixes its factors over
    the tile: numpy's c_einsum (``optimize=False``, so never BLAS) adds one
    product per k, in k order, to each output element, as long as the output
    has more than one element; a tile of one pair and one step is a dot
    product, which einsum would reduce with partial sums, so it is summed in
    k order in Python. The tiles read the streams in order, so the normals,
    and every element's operations and their order, are the same for any
    tile size. A numpy build whose einsum fuses the multiply and add (aarch64
    NEON, say) may differ in the last bit, as the BSDE's BLAS regression and
    a SIMD ``exp`` already can; results stay identical for any worker count.
    The cumulative sum over time adds each time row to the next as each tile
    is written: numpy's accumulate is slow along an axis that is not
    innermost, and a cumulative sum is sequential either way, so the bits
    are those of ``np.cumsum``.

    With ``ring``, ``block`` is instead a ring buffer of the written rows
    alone, (len(rows), m, count) with m at least two more than the kernel's
    longest tile: the tile of steps lo .. hi - 1 is written to the ring's
    rows 1 .. hi - lo, after row 0, which holds the log level of node lo.
    The kernel carries that level in the ring's last row, copies the last
    row of each tile there and writes it back to row 0 before the next tile,
    so between tiles a reader may overwrite every row of the ring but the
    last (:func:`_level_tiles`). Each element's operations are those of a
    whole block.
    """
    count = block.shape[2]
    drift, vol = drift[rows], vol[rows]
    reads, tiles = _kernel_tiles(vol, count)
    n_factors = max(reads, default=0)
    half = count - count // 2
    # one tile's normals, not a whole chunk's: on a 100k-path, 50-step, 3-driver BSDE solve this
    # took the solver's own peak RSS from 101 to 90 MB (one worker)
    z = np.empty((n_factors, tiles[0].stop, half))
    mixed = np.empty((tiles[0].stop, half))  # m of the driver being written, one row per step
    streams = [chunk_stream(seed, chunk, k) for k in range(n_factors)]
    # each driver's path and its time-row views, built once: indexing them per step costs time
    paths = [(block[i if ring else d], list(block[i if ring else d])) for i, d in enumerate(rows)]
    for path, _ in paths:
        path[-1 if ring else 0] = 0.0  # log(S / x0) at node 0
    for steps in tiles:
        lo, hi = steps.start, steps.stop
        at = 0 if ring else lo  # the block row of node lo
        for k, stream in enumerate(streams):
            normal_block(stream, z[k : k + 1, : hi - lo])
        m = mixed[: hi - lo]
        for i, (path, path_rows) in enumerate(paths):
            if ring:
                path[0] = path[-1]
            weights, zs = vol[i, : reads[i], steps], z[: reads[i], : hi - lo]
            if m.size > 1:
                np.einsum("kj,kjp->jp", weights, zs, out=m, optimize=False)
            else:  # one pair on one step: a dot product, which einsum sums in another order
                m[0, 0] = 0.0
                for k in range(reads[i]):
                    m[0, 0] += weights[k, 0] * zs[k, 0, 0]
            np.add(drift[i, steps, None], m, out=path[1 + at : 1 + at + hi - lo, 0::2])
            np.subtract(drift[i, steps, None], m[:, : count // 2], out=path[1 + at : 1 + at + hi - lo, 1::2])
            for j in range(1 + at, 1 + at + hi - lo):  # the tile's rows are still in cache
                np.add(path_rows[j - 1], path_rows[j], out=path_rows[j])
            if ring:
                path[-1] = path[hi - lo]
        yield steps


def _ring_shape(vol: np.ndarray, rows: np.ndarray, count: int) -> tuple[int, int, int]:
    """The shape of :func:`_level_tiles`'s ring for the drivers ``rows`` over a chunk of ``count`` paths.

    Each driver has the rows of the kernel's longest tile of steps and three
    more: the tile's first node, the level carried from tile to tile and the
    kernel's own carried log level.
    """
    return len(rows), _kernel_tiles(vol[rows], count)[1][0].stop + 3, count


def _level_tiles(
    seed: int, drift: np.ndarray, vol: np.ndarray, x0: np.ndarray, chunk: int, rows: np.ndarray, count: int,
    buffer: np.ndarray,
):
    """The levels of the drivers ``rows`` over simulation chunk ``chunk``, tile by tile, stored nowhere.

    Yields, for each of the kernel's tiles of steps lo .. hi - 1, the slice
    of nodes lo .. hi and the (len(rows), hi - lo + 1, count) levels there:
    the kernel writes the tile's log-paths into a ring buffer of the rows
    (:func:`_log_tiles`), the level step of :func:`_simulate_chunk` (one
    ``exp``, one product with x0) turns them into levels, and row 0 takes the
    carried last level of the tile before, x0 at node 0 (exp(0) x0 is x0).
    Every level has the bits :func:`_simulate_chunk` gives it. The ring
    (:func:`_ring_shape`) is the head of the flat ``buffer``, which the
    calling thread may reuse for its next chunk; it is rewritten when the
    next tile is drawn.
    """
    shape = _ring_shape(vol, rows, count)
    ring = buffer[: math.prod(shape)].reshape(shape)
    left = ring[:, -2]  # each driver's level at the tile's first node; the kernel keeps the last row
    left[:] = x0[rows, None]
    for steps in _log_tiles(ring, seed, drift, vol, chunk, rows, ring=True):
        n = steps.stop - steps.start
        tile = ring[:, : n + 1]
        with np.errstate(over="ignore"):  # as in _simulate_chunk
            for i, d in enumerate(rows):
                np.exp(tile[i, 1:], out=tile[i, 1:])
                tile[i, 1:] *= x0[d]
        tile[:, 0] = left
        left[:] = tile[:, n]
        yield slice(steps.start, steps.stop + 1), tile


# an overflowing level is infinite, which every estimate that reads it reports
# (check_finite_estimate); numpy's warning would only repeat it
@np.errstate(over="ignore")
def _simulate_chunk(
    block: np.ndarray,
    seed: int,
    drift: np.ndarray,
    vol: np.ndarray,
    x0: np.ndarray,
    chunk: int,
    rows: np.ndarray,
) -> None:
    """Write the paths of the drivers ``rows`` of simulation chunk ``chunk`` into the time-major ``block``.

    The log-paths of :func:`_simulate_log_chunk` followed by the level step,
    one ``exp`` and a product with the initial levels ``x0``.
    """
    _simulate_log_chunk(block, seed, drift, vol, chunk, rows)
    for d in rows:
        np.exp(block[d], out=block[d])
        block[d] *= x0[d]


def _step_coefficients(
    model: ValidatedModel, grid: TimeGrid, drift_shift: dict[str, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run's (drift, vol, x0) for :func:`_simulate_chunk`.

    drift[d, j] is driver d's log-drift over step j, vol[d, k, j] the weight of
    normal factor k in it (``model.mixing`` times sigma sqrt(dt)), x0[d] the
    initial level. A ``drift_shift`` key that names
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
    """A ScenarioSet whose drivers are simulated the first time they are read.

    The inputs are checked, and the step coefficients computed, at once:
    ``n_paths`` below one raises :class:`ZeroPaths`, and ``n_workers`` below
    one, or a ``drift_shift`` key that names no driver, :class:`ConfigError`.
    No driver is simulated, and no path array allocated, here;
    :meth:`ScenarioSet.load` simulates those a reader names into the store,
    and :meth:`ScenarioSet.map_tiles` streams them, chunk by chunk through
    :func:`run_chunks` on ``n_workers`` threads, each to the bits a
    simulation of every driver gives it, drawing only the normals of the
    factors they read.
    ``drift_shift`` adds a constant per-year drift bump to drivers named by
    ``model.driver_labels``, for diagnostics negative controls; a scenario
    with a non-zero shift is tagged ``"p"`` and pricing refuses it.
    """
    if n_paths < 1:
        raise ZeroPaths(f"n_paths={n_paths}")
    worker_threads(n_workers, 1)  # rejects a count below one
    drift_shift = drift_shift or {}
    drift, vol, x0 = _step_coefficients(model, grid, drift_shift)
    scenario = ScenarioSet(
        model=model,
        grid=grid,
        seed=seed,
        paths=None,  # allocated at the first load
        measure_tag="p" if any(drift_shift.values()) else "qe",
    )
    object.__setattr__(scenario, "_simulation", _Simulation(drift, vol, x0, n_workers, n_paths))
    return scenario


def dump_paths_csv(scenario: ScenarioSet, path: str) -> None:
    """Columnar dump: path_id, time, driver_label, value."""
    paths = scenario.paths  # every driver, simulated in one pass
    blocks = ((label, paths[d].T) for d, label in enumerate(scenario.model.driver_labels))
    write_grid(path, ("driver_label", "value"), scenario.grid.times, blocks)
