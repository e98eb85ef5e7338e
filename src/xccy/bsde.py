"""Endogenous-collateral valuation by backward regression Monte Carlo.

When the collateral tracks the contract's own mark-to-market with haircuts,
the value process solves a backward equation with zero terminal condition and
driver

    f(t, v) = r_dom(t) v + (r_dom(t) - rc_dom(t) - q_k3(t)) * Chat(v),
    Chat(v) = (1 + delta1) (-v)^+ - (1 + delta2) (-v)^-,

valid for cash collateral under rehypothecation with symmetric collateral
rates and the cash-posting account funded at the domestic unsecured rate.

The driver reads deterministic curves only, and the contract pays its flows in
one currency k2, converted at X_k2; so the value is a function of time and
X_k2 alone, deterministic when k2 is domestic. The scheme steps backward from
V_T = 0: conditional expectations of the discounted continuation plus flows
are estimated by least-squares regression on the powers 1, s, ..., s^degree
of that Markov state (Longstaff & Schwartz 2001), the log-state
s = log(X_k2 / x0) that the simulation's log-path kernel writes for the
sub-model ``model.restricted(model.fx_drivers(k2))``; a domestic k2 has no
state and no regression. Each fit is one rank-revealing least-squares solve of the normal
equations, so a degenerate state gets the minimum-norm fit. The
driver is linear on each sign of v and the slice equation keeps the sign of the
continuation value, so each slice is solved exactly:
v = cont / (1 + dr - ds (1 + delta)), with delta1 where cont < 0 and delta2
elsewhere (dr, ds: step integrals of r_dom and of the spread). At
delta1 = delta2 = 0 the scheme collapses to deterministic discounting of the
flow expectations, the closed form of
:func:`xccy.pricing.price_fully_collateralized`.

A domestic trade (k2 = dom) is valued without paths: its continuation value
is the same on every path, so the scheme is the scalar recursion of
:func:`discrete_value` run once, with no normals drawn, no chunk loop and no
thread, and its value surface is a read-only view of that one row on every
path. A foreign trade runs in two passes over the simulation chunks of
:mod:`xccy.simulation`, each chunk simulated as log-paths of that sub-model by
:func:`~xccy.simulation._simulate_log_chunk` and never turned into levels: a
flow is converted at exp(log X) * x0 on its own node only. Drivers the trade
does not read are not simulated and move no bit of the result. The fit
simulates chunk 0 alone (all paths when there are at most ``CHUNK_PATHS``)
and fits each slice's coefficients on it backward; slice 0, whose states are
the initial levels, takes the mean of its target, one number shared by every
path. The valuation reuses that chunk and simulates every later chunk on the
same kernel into a buffer reused per worker thread, and carries the value
v_j = cont / den and the pathwise value u (the flows discounted through the
same slice denominators) backward with the fixed coefficients: once they are
known, a path's values depend on its own states alone (Longstaff & Schwartz
2001). Memory is one chunk per thread plus the (n_paths, n_times) value
surface of a foreign trade, and a few arrays of n_times for a domestic one.
A foreign trade's v0 is the mean of u and its error bar that of
:func:`~xccy.simulation.sample_mean`, one estimator for both; a domestic
trade's error bar is the rounding floor of :func:`rounding_floor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collateral import check_haircuts
from .contracts import Contract
from .errors import ConfigError, NumericalError, SingularRegression
from .model import ValidatedModel, cross_currency_basis_of
from .simulation import (
    TimeGrid,
    _simulate_log_chunk,
    _step_coefficients,
    check_error_bar_paths,
    check_finite_estimate,
    chunk_columns,
    run_chunks,
    sample_mean,
    worker_threads,
)
# not called by the solver; kept bound here because the benchmark's tracer wraps this name
from .simulation import simulate  # noqa: F401
from .wealth import flow_amounts


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
    v0: float  # foreign k2: mean of the pathwise value u, the flows discounted through the slice denominators;
    # domestic k2: g_0 of discrete_value, computed without paths
    v0_std_error: float  # foreign k2: sample_mean error bar of u, so of v0; domestic k2: rounding_floor
    # (n_paths, n_times) value per path and grid node, column 0 v0 on every path; for a domestic k2 a
    # read-only zero-stride view of the one row discrete_value computes
    surface: np.ndarray
    picard_counts: tuple[int, ...]  # slice solves per step: 1, the solve is exact; only perfbench reads it
    grid: TimeGrid
    n_paths: int
    seed: int


def _regress(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``target`` on the rows of ``design``
    (n_basis, n_paths); the fitted values of any paths are ``beta @ design``
    of their design.

    The normal equations are solved by one rank-revealing ``lstsq``, so a
    degenerate state (a constant one, say) gets the minimum-norm
    least-squares fit. A non-finite Gram matrix or right-hand side raises
    :class:`SingularRegression` before LAPACK sees it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
        gram = design @ design.T
        rhs = design @ target
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise SingularRegression("non-finite regression design or target")
    try:
        beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularRegression("non-finite regression coefficients")
    return beta


def _slice_denominator(cont, dr: float, ds: float, delta1: float, delta2: float) -> np.ndarray:
    """1 + dr - ds (1 + delta), delta = delta1 where cont < 0 and delta2 elsewhere.

    ``cont`` is a per-path array, or one number when the continuation value is
    the same on every path; the denominator has its shape (0-d for a number).
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


def _step_integrals(model: ValidatedModel, k3: str, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step exact integrals (dr, ds) of the driver's coefficients: r_dom and the spread r_dom - rc_dom - q_k3."""
    dr = model.curve(model.domestic, "unsecured").step_integrals(times)
    ds = (
        dr
        - model.curve(model.domestic, "collateral_lend").step_integrals(times)
        - cross_currency_basis_of(model, k3, lambda curve: curve.step_integrals(times))
    )
    return dr, ds


def discrete_value(
    model: ValidatedModel, contract: Contract, k3: str, delta1: float, delta2: float, grid: TimeGrid
) -> np.ndarray:
    """The scheme's exact value per unit of X_k2, g_j at each grid node, from scalars alone.

    The driver's coefficients are deterministic and X_k2 > 0, so the
    continuation value of slice j is X_k2(t_j) m_j (g_{j+1} - A_{j+1}), of the
    sign of g_{j+1} - A_{j+1} on every path, and the slice solve gives v_j =
    X_k2(t_j) g_j with g_n = 0 and

        g_j = m_j (g_{j+1} - A_{j+1}) / (1 + dr_j - ds_j (1 + delta)),

    delta = delta1 where g_{j+1} - A_{j+1} < 0 and delta2 elsewhere
    (:func:`_slice_denominator`), A_j the flow at node j and
    m_j = exp(integral of r_dom - r_k2 over step j), the conditional growth
    of X_k2. For a domestic k2, m_j = 1 and g is the value itself:
    :func:`solve_endogenous` returns it. For a foreign k2, x0 g_0 is the
    oracle of the solver's v0, off by the regression's bias alone. An
    overflow gives an infinite or NaN g, which the caller's finiteness check
    reports; numpy prints no warning.
    """
    flows = flow_amounts(grid, contract)
    dr, ds = _step_integrals(model, k3, grid.times)
    growth = np.ones(grid.n_steps)  # a product with 1.0 keeps every bit
    if contract.native_currency != model.domestic:
        growth = np.exp(dr - model.curve(contract.native_currency, "unsecured").step_integrals(grid.times))
    g = np.zeros(len(flows))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps - 1, -1, -1):
            cont = g[j + 1] - flows[j + 1]
            g[j] = growth[j] * cont / _slice_denominator(cont, dr[j], ds[j], delta1, delta2)
    return g


def rounding_floor(n_steps: int, magnitude: float) -> float:
    """The error bar of a value computed without paths: eps (n_steps + 2) ``magnitude``.

    One rounding per step of the recursion and a few for the step integrals,
    each at most eps times the largest |g_j| or |flow| on the grid,
    ``magnitude``. It stands for the error of a deterministic value where a
    Monte Carlo estimate has its standard error: never 0, and not the noise
    of averaging copies of one number.
    """
    return float(np.finfo(float).eps * (n_steps + 2) * magnitude)


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
    receives) with its error bar, and the value surface on the grid. A
    domestic trade is :func:`discrete_value` itself: no paths, its error bar
    :func:`rounding_floor` and its surface a read-only view of that one row
    on every path. For a foreign trade the slice coefficients are fitted on
    simulation chunk 0 alone; every chunk, chunk 0 included, is then valued
    with them, the later ones simulated one at a time into a reused buffer
    per worker thread of :func:`~xccy.simulation.run_chunks`. Every chunk
    comes from the log-path kernel :func:`~xccy.simulation._simulate_log_chunk`
    run on the sub-model of the flows' FX driver,
    ``model.restricted(model.fx_drivers(k2))``: its one log-path
    log(X_k2 / x0) is the regression state. The rates, the basis and k3's
    curves are read from ``model``. v0 and its error bar are the
    :func:`~xccy.simulation.sample_mean` of the pathwise value u, the flows
    discounted through the slice denominators; :class:`BsdeConfig` rejects a
    path count that is odd or below four with :class:`ConfigError` before
    anything is simulated, and a v0 or error bar that is not finite raises
    :class:`NumericalError` (:func:`~xccy.simulation.check_finite_estimate`).
    """
    check_haircuts(delta1, delta2)  # again: --delta1 and --delta2 bypass the CollateralSpec
    model.require_symmetric_collateral_rates(model.domestic, k3)
    cash_post = model.curve_set(k3).cash_post_funding
    if cash_post is not None and cash_post != model.curve(model.domestic, "unsecured"):
        raise ConfigError(
            "the endogenous solver assumes cash collateral posted out of the domestic "
            f"unsecured account; cash_post_funding for {k3!r} must equal the domestic unsecured curve"
        )
    grid = cfg.grid
    if contract.native_currency == model.domestic:
        v = discrete_value(model, contract, k3, delta1, delta2, grid)
        v0, surface = v[0], np.broadcast_to(v, (cfg.n_paths, len(v)))
        std_error = rounding_floor(grid.n_steps, max([np.abs(v).max(), *(abs(a) for _, a in contract.flows)]))
    else:
        v0, std_error, surface = _regression_solve(model, contract, k3, delta1, delta2, cfg)
    check_finite_estimate("v0", v0, std_error)
    return BsdeResult(
        v0=float(v0),
        v0_std_error=float(std_error),
        surface=surface,
        picard_counts=(1,) * grid.n_steps,
        grid=grid,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
    )


def _regression_solve(
    model: ValidatedModel, contract: Contract, k3: str, delta1: float, delta2: float, cfg: BsdeConfig
) -> tuple[float, float, np.ndarray]:
    """v0, its error bar and the (n_paths, n_times) value surface of a foreign trade, by regression on X_k2."""
    grid = cfg.grid
    n_steps = grid.n_steps
    n_paths = cfg.n_paths
    flows = flow_amounts(grid, contract)
    r_int, spread_int = _step_integrals(model, k3, grid.times)
    # the one random input is the flows' FX rate, so the states are its log-path log(X_k2 / x0),
    # simulated on the sub-model of that driver alone
    drift, vol, x0 = _step_coefficients(model.restricted(model.fx_drivers(contract.native_currency)), grid, {})
    coefs: list = [None] * n_steps  # per slice: beta over the design rows, or the slice-0 mean

    def sweep(paths: np.ndarray, surface: np.ndarray, u: np.ndarray, fit: bool) -> None:
        """Carry one chunk's log-paths backward from V_T = 0, writing its
        surface rows and pathwise values; with ``fit``, fit each slice's
        coefficients on this chunk first."""
        design = np.ones((cfg.degree + 1, paths.shape[2]))  # row k: the state's k-th power
        for j in range(n_steps - 1, -1, -1):
            target = surface[j + 1]
            if flows[j + 1]:  # subtracting a zero flow would leave every bit as it is
                # an overflow reaches the regression's or v0's finiteness check through target and u
                with np.errstate(over="ignore", invalid="ignore"):
                    # at X_k2 = exp(log X) * x0, bit for bit the level simulate stores
                    paid = flows[j + 1] * (np.exp(paths[0, j + 1]) * x0[0])
                    u -= paid
                    if fit:
                        target = target - paid
            if j == 0:
                if fit:
                    with np.errstate(over="ignore", invalid="ignore"):  # check_finite_estimate reports an overflow
                        coefs[0] = float(np.mean(target))
                cont = coefs[0]  # one number: the states of slice 0 are the initial levels
            else:
                for k in range(1, cfg.degree + 1):
                    np.multiply(design[k - 1], paths[0, j], out=design[k])
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
        """Simulate and sweep ``chunks`` in order, on one buffer of log-paths as wide as chunk 0, the widest."""
        buffer = np.empty((1, n_steps + 1, columns[0].stop))
        for chunk in chunks:
            cols = columns[chunk]
            block = buffer[:, :, : cols.stop - cols.start]
            _simulate_log_chunk(block, cfg.seed, drift, vol, chunk, np.arange(1))
            sweep(block, surface[:, cols], u[cols], fit)

    value([0], fit=True)  # the pilot: simulation chunk 0, all paths when there are at most CHUNK_PATHS
    run_chunks(value, range(1, len(columns)), cfg.n_workers)
    v0, std_error = sample_mean(u)
    surface[0] = v0
    return v0, std_error, surface.T
