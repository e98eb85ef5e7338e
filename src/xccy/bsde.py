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
on polynomial functions of the log-states. The driver is linear on each sign
of v and the slice equation keeps the sign of the continuation value, so each
slice is solved exactly: v = cont / (1 + dr - ds (1 + delta)), with delta1
where cont < 0 and delta2 elsewhere (dr, ds: step integrals of r_dom and of
the spread). At delta1 = delta2 = 0 the scheme collapses to deterministic
discounting of the flow expectations, the closed form of
:func:`xccy.pricing.price_fully_collateralized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .contracts import Contract
from .errors import AsymmetricCollateralRates, ConfigError, NumericalError, SingularRegression
from .model import ValidatedModel, cross_currency_basis_of
from .simulation import TimeGrid, simulate

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
        if self.degree < 0:
            raise ConfigError(f"regression degree must be >= 0, got {self.degree}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass(frozen=True)
class BsdeResult:
    v0: float
    v0_std_error: float  # sample SE of the slice-0 average, through the slice solve
    surface: np.ndarray  # (n_paths, n_times) value per path per grid node
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
    """Least-squares fitted values of ``target`` on the rows of ``design``
    (n_basis, n_paths), with a ridge fallback on ill-conditioning."""
    gram = design @ design.T
    rhs = design @ target
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        gram = gram + RIDGE_LAMBDA * np.eye(gram.shape[0])
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularRegression("non-finite regression coefficients")
    return beta @ design


def _slice_denominator(cont: np.ndarray, dr: float, ds: float, delta1: float, delta2: float) -> np.ndarray:
    """Per-path 1 + dr - ds (1 + delta), delta = delta1 where cont < 0 and delta2 elsewhere.

    v = cont / denominator solves the slice equation when every denominator is
    positive; otherwise no v of the sign of cont does."""
    den = np.where(cont < 0, 1.0 + dr - ds * (1.0 + delta1), 1.0 + dr - ds * (1.0 + delta2))
    if np.any(den <= 0):
        raise NumericalError(
            f"non-positive slice denominator {float(den.min()):.3e}: "
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
    receives) with its standard error, and the regression value surface on
    the grid.
    """
    if not (delta1 > -1 and delta2 > -1):
        raise ConfigError(f"haircuts must exceed -1, got {delta1}, {delta2}")
    if not model.has_symmetric_collateral_rates(model.domestic):
        raise AsymmetricCollateralRates("domestic collateral borrow and lend rates must coincide")
    if not model.has_symmetric_collateral_rates(k3):
        raise AsymmetricCollateralRates(f"collateral borrow and lend rates must coincide for {k3!r}")
    cash_post = model.rates[k3].cash_post_funding
    r_e = model.curve(model.domestic, "unsecured")
    if cash_post is not None and not (
        np.array_equal(cash_post.knots, r_e.knots) and np.array_equal(cash_post.values, r_e.values)
    ):
        raise ConfigError(
            "the endogenous solver assumes cash collateral posted out of the domestic "
            f"unsecured account; cash_post_funding for {k3!r} must equal the domestic unsecured curve"
        )
    grid = cfg.grid
    for t in contract.flow_times:
        grid.index_of(t)  # raises if a flow date is off the grid

    scenario = simulate(model, grid, cfg.n_paths, cfg.seed, n_workers=cfg.n_workers)
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

    fx_k2 = scenario.fx(contract.native_currency)
    flow_at = {grid.index_of(t): 0.0 for t, _ in contract.flows}
    for t, amount in contract.flows:
        j = grid.index_of(t)
        flow_at[j] = flow_at[j] + amount

    # log-states relative to their initial levels, and their monomials
    driver_series = [scenario.driver(label) for label in model.driver_labels]
    n_drivers = len(driver_series)
    products = _monomial_products(n_drivers, cfg.degree)
    log_x0 = np.log([series[0, 0] for series in driver_series]).reshape(n_drivers, 1)
    states = np.empty((n_drivers, n_paths))
    design = np.ones((1 + len(products), n_paths))

    surface = np.zeros((n_steps + 1, n_paths))  # time-major: one row per slice
    v = surface[n_steps]  # V_T = 0: collateral returned, nothing left to pay
    for j in range(n_steps - 1, -1, -1):
        y = v - flow_at[j + 1] * fx_k2[:, j + 1] if (j + 1) in flow_at else v
        if j == 0 or not n_drivers:
            cont = np.full(n_paths, float(np.mean(y)))
        else:
            for d, series in enumerate(driver_series):
                np.log(series[:, j], out=states[d])
            states -= log_x0
            _fill_design(design, states, products)
            cont = _regress(design, y)
        den = _slice_denominator(cont, r_int[j], spread_int[j], delta1, delta2)
        v = np.divide(cont, den, out=surface[j])
    std_error = float(np.std(y, ddof=1) / math.sqrt(n_paths) / den[0]) if n_paths > 1 else 0.0
    return BsdeResult(
        v0=float(v[0]),
        v0_std_error=std_error,
        surface=surface.T,
        picard_counts=(1,) * n_steps,
        grid=grid,
        n_paths=n_paths,
        seed=cfg.seed,
    )
