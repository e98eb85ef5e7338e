"""Endogenous-collateral valuation by backward regression Monte Carlo.

When the collateral tracks the contract's own mark-to-market with haircuts,
the value process solves a backward equation with zero terminal condition and
driver

    f(t, v) = r_dom(t) v + (r_dom(t) - rc_dom(t) - q_k3(t)) * Chat(v),
    Chat(v) = (1 + delta1) (-v)^+ - (1 + delta2) (-v)^-,

valid for cash collateral under rehypothecation with symmetric collateral
rates and the cash-posting account funded at the domestic unsecured rate.

The scheme steps backward from V_T = 0: conditional expectations of the
discounted continuation plus flows are estimated by least-squares regression
on polynomial functions of the log-states log(S / x0), the cumulative
log-increments that the simulation's log-path kernel writes. The driver is
linear on each sign of v and the slice equation keeps the sign of the
continuation value, so each slice is solved exactly:
v = cont / (1 + dr - ds (1 + delta)), with delta1 where cont < 0 and delta2
elsewhere (dr, ds: step integrals of r_dom and of the spread). At
delta1 = delta2 = 0 the scheme collapses to deterministic discounting of the
flow expectations, the closed form of
:func:`xccy.pricing.price_fully_collateralized`.

The solver runs in two passes over the simulation chunks of
:mod:`xccy.simulation`, each chunk simulated as log-paths by
:func:`~xccy.simulation._simulate_log_chunk` and never turned into levels: a
flow in a foreign currency is converted at exp(log X) * x0 on its own node
only. The fit simulates chunk 0 alone (all paths when there are at most
``CHUNK_PATHS``) and fits each slice's coefficients on it backward; slice 0,
whose states are the initial levels, takes the mean of its target. The
valuation reuses that chunk and simulates every later chunk on the same
kernel into a buffer reused per worker thread, and carries the value
v_j = cont / den and the pathwise value u (the flows discounted through the
same slice denominators) backward with the fixed coefficients: once they are
known, a path's values depend on its own states alone (Longstaff & Schwartz
2001).
Memory is one chunk per thread plus the value surface. v0 is the mean of u
and its error bar that of :func:`~xccy.simulation.sample_mean`, one estimator
for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .collateral import check_haircuts
from .contracts import Contract
from .errors import ConfigError, NumericalError, SingularRegression
from .model import ValidatedModel, cross_currency_basis_of, fx_label
from .simulation import (
    TimeGrid,
    _simulate_log_chunk,
    _step_coefficients,
    check_error_bar_paths,
    chunk_columns,
    run_chunks,
    sample_mean,
    worker_threads,
)
# not called by the solver; kept bound here because the benchmark's tracer wraps this name
from .simulation import simulate  # noqa: F401
from .wealth import flow_amounts

RIDGE_LAMBDA = 1e-8
COND_LIMIT = 1e12


@dataclass(frozen=True)
class BsdeConfig:
    grid: TimeGrid
    n_paths: int
    seed: int = 0
    degree: int = 2
    n_workers: int = 1

    def __post_init__(self):
        check_error_bar_paths(self.n_paths)
        if self.degree < 0:
            raise ConfigError(f"regression degree must be >= 0, got {self.degree}")
        worker_threads(self.n_workers, 1)  # rejects a count below one


@dataclass(frozen=True)
class BsdeResult:
    v0: float  # mean of the pathwise value u: the flows discounted through the slice denominators
    v0_std_error: float  # sample_mean error bar of u, so of v0
    surface: np.ndarray  # (n_paths, n_times) value per path and grid node; column 0 is v0 on every path
    picard_counts: tuple[int, ...]  # slice solves per step: 1, the solve is exact
    grid: TimeGrid
    n_paths: int
    seed: int


def _monomial_products(n_drivers: int, degree: int) -> list[tuple[int, int]]:
    """Design rows after the constant row 0: one per monomial of total degree
    1..degree in the states, as (row of the monomial without its last factor,
    state row of that factor)."""
    monomials = [()] + [
        combo for deg in range(1, degree + 1) for combo in combinations_with_replacement(range(n_drivers), deg)
    ]
    row_of = {combo: row for row, combo in enumerate(monomials)}
    return [(row_of[combo[:-1]], combo[-1]) for combo in monomials[1:]]


def _fill_design(design: np.ndarray, states: np.ndarray, products: list[tuple[int, int]]) -> None:
    """Write the monomials of ``states`` (n_drivers, n_paths) into rows 1.. of
    ``design``, whose row 0 holds ones."""
    for row, (prefix, d) in enumerate(products, 1):
        np.multiply(design[prefix], states[d], out=design[row])


def _regress(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``target`` on the rows of ``design``
    (n_basis, n_paths), with a ridge fallback on ill-conditioning; the fitted
    values of any paths are ``beta @ design`` of their design."""
    gram = design @ design.T
    rhs = design @ target
    try:  # a non-finite design makes the condition number's SVD fail as well as the solve
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            gram = gram + RIDGE_LAMBDA * np.eye(gram.shape[0])
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularRegression("non-finite regression coefficients")
    return beta


def _slice_denominator(cont: np.ndarray, dr: float, ds: float, delta1: float, delta2: float) -> np.ndarray:
    """Per-path 1 + dr - ds (1 + delta), delta = delta1 where cont < 0 and delta2 elsewhere.

    v = cont / denominator solves the slice equation when every denominator is
    positive; otherwise no v of the sign of cont does, and a non-positive
    denominator that some path selects raises :class:`NumericalError`."""
    below = 1.0 + dr - ds * (1.0 + delta1)
    above = 1.0 + dr - ds * (1.0 + delta2)
    den = np.where(cont < 0, below, above)
    if min(below, above) <= 0 and den.min() <= 0:
        raise NumericalError(
            f"non-positive slice denominator {den.min():.3e}: "
            f"haircuts ({delta1}, {delta2}) are too large for the step spread {ds:.3e}"
        )
    return den


def solve_endogenous(
    model: ValidatedModel,
    contract: Contract,
    k3: str,
    delta1: float,
    delta2: float,
    cfg: BsdeConfig,
) -> BsdeResult:
    """Value of the contract when collateral is the haircut mark-to-market in k3.

    Returns the time-0 value (equal to the ex-dividend price the hedger
    receives) with its standard error, and the value surface on the grid. The
    slice coefficients are fitted on simulation chunk 0 alone; every chunk,
    chunk 0 included, is then valued with them, the later ones simulated one
    at a time into a reused buffer per worker thread of
    :func:`~xccy.simulation.run_chunks`. Every chunk comes from the log-path
    kernel :func:`~xccy.simulation._simulate_log_chunk`, whose log-paths are
    the regression states. v0 and its error bar are the
    :func:`~xccy.simulation.sample_mean` of the pathwise value u, the flows
    discounted through the slice denominators; :class:`BsdeConfig` rejects a
    path count that is odd or below four with :class:`ConfigError` before
    anything is simulated.
    """
    check_haircuts(delta1, delta2)  # again: --delta1 and --delta2 bypass the CollateralSpec
    model.require_symmetric_collateral_rates(model.domestic)
    model.require_symmetric_collateral_rates(k3)
    cash_post = model.curve_set(k3).cash_post_funding
    r_e = model.curve(model.domestic, "unsecured")
    if cash_post is not None and cash_post != r_e:
        raise ConfigError(
            "the endogenous solver assumes cash collateral posted out of the domestic "
            f"unsecured account; cash_post_funding for {k3!r} must equal the domestic unsecured curve"
        )
    grid = cfg.grid
    flows = flow_amounts(grid, contract)

    times = grid.times
    n_steps = grid.n_steps
    n_paths = cfg.n_paths
    rc_e = model.curve(model.domestic, "collateral_lend")

    # per-step exact integrals of the driver coefficients
    r_int = r_e.step_integrals(times)
    spread_int = (
        r_int
        - rc_e.step_integrals(times)
        - cross_currency_basis_of(model, k3, lambda curve: curve.step_integrals(times))
    )

    # the states are the kernel's log-paths log(S / x0); the design holds their monomials
    n_drivers = len(model.driver_labels)
    products = _monomial_products(n_drivers, cfg.degree)
    drift, vol, x0 = _step_coefficients(model, grid, {})
    native = contract.native_currency
    fx_row = None if native == model.domestic else model.driver_labels.index(fx_label(native))
    coefs: list = [None] * n_steps  # per slice: beta over the design rows, or the slice-0 mean

    def sweep(paths: np.ndarray, surface: np.ndarray, u: np.ndarray, fit: bool) -> None:
        """Carry one chunk's log-paths backward from V_T = 0, writing its
        surface rows and pathwise values; with ``fit``, fit each slice's
        coefficients on this chunk first."""
        count = paths.shape[2]
        design = np.ones((1 + len(products), count))
        for j in range(n_steps - 1, -1, -1):
            target = surface[j + 1]
            if flows[j + 1]:  # subtracting a zero flow would leave every bit as it is
                paid = flows[j + 1]
                if fx_row is not None:  # at exp(log X) * x0, bit for bit the level simulate stores
                    paid = paid * (np.exp(paths[fx_row, j + 1]) * x0[fx_row])
                u -= paid
                if fit:
                    target = target - paid
            if j == 0 or not n_drivers:
                if fit:
                    coefs[j] = float(np.mean(target))
                cont = np.full(count, coefs[j])
            else:
                _fill_design(design, paths[:, j], products)
                if fit:
                    coefs[j] = _regress(design, target)
                cont = coefs[j] @ design
            den = _slice_denominator(cont, r_int[j], spread_int[j], delta1, delta2)
            np.divide(cont, den, out=surface[j])
            u /= den

    surface = np.zeros((n_steps + 1, n_paths))  # time-major: one row per slice
    # pathwise value: the flows discounted through the same slice denominators,
    # without the regression's averaging; its mean is v0 and its spread the error bar
    u = np.zeros(n_paths)
    columns = chunk_columns(n_paths)

    def value(chunks: list[int], fit: bool = False) -> None:
        """Simulate and sweep ``chunks`` in order, on one buffer as wide as chunk 0."""
        buffer = np.empty((n_drivers, n_steps + 1, columns[0].stop))
        for chunk in chunks:
            cols = columns[chunk]
            block = buffer[:, :, : cols.stop - cols.start]
            _simulate_log_chunk(block, cfg.seed, drift, vol, chunk)
            sweep(block, surface[:, cols], u[cols], fit)

    value([0], fit=True)  # the pilot: simulation chunk 0, all paths when there are at most CHUNK_PATHS
    run_chunks(value, range(1, len(columns)), cfg.n_workers)
    v0, std_error = sample_mean(u)
    surface[0] = v0
    return BsdeResult(
        v0=float(v0),
        v0_std_error=float(std_error),
        surface=surface.T,
        picard_counts=(1,) * n_steps,
        grid=grid,
        n_paths=n_paths,
        seed=cfg.seed,
    )
