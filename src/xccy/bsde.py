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
on polynomial functions of the log-states, and the implicit dependence of the
driver on the current value is resolved by a pointwise Picard iteration per
time slice. At delta1 = delta2 = 0 the driver is linear and the scheme
collapses to deterministic discounting of the flow expectations, which is the
closed form of :func:`xccy.pricing.price_fully_collateralized`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .contracts import Contract
from .errors import (
    AsymmetricCollateralRates,
    ConfigError,
    PicardDivergence,
    SingularRegression,
)
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
    picard_max: int = 20
    picard_tol: float = 1e-8
    n_workers: int = 1

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigError(f"regression degree must be >= 0, got {self.degree}")
        if self.picard_max < 1:
            raise ConfigError(f"picard_max must be >= 1, got {self.picard_max}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass(frozen=True)
class BsdeResult:
    v0: float
    surface: np.ndarray  # (n_paths, n_times) value per path per grid node
    picard_counts: tuple[int, ...]
    grid: TimeGrid
    n_paths: int
    seed: int


def _basis_matrix(states: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree in the columns of ``states``, plus 1."""
    n, d = states.shape
    cols = [np.ones(n)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), deg):
            col = np.ones(n)
            for i in combo:
                col = col * states[:, i]
            cols.append(col)
    return np.column_stack(cols)


def _regress(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares fitted values, with a ridge fallback on ill-conditioning."""
    gram = design.T @ design
    rhs = design.T @ target
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        gram = gram + RIDGE_LAMBDA * np.eye(gram.shape[0])
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularRegression("non-finite regression coefficients")
    return design @ beta


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
    receives) and the regression value surface on the grid.
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

    # log-states relative to their initial levels, per grid node
    driver_series = [
        scenario.fx(lab[3:]) if lab.startswith("fx:") else scenario.asset(lab)
        for lab in model.driver_labels
    ]

    one_p_d1 = 1.0 + delta1
    one_p_d2 = 1.0 + delta2

    surface = np.zeros((cfg.n_paths, n_steps + 1))
    counts = []
    v = np.zeros(cfg.n_paths)  # V_T = 0: collateral returned, nothing left to pay
    for j in range(n_steps - 1, -1, -1):
        y = v.copy()
        if (j + 1) in flow_at:
            y = y - flow_at[j + 1] * fx_k2[:, j + 1]
        if j == 0:
            cont = np.full(cfg.n_paths, float(np.mean(y)))
        elif model.driver_labels:
            states = np.log(
                np.column_stack([series[:, j] for series in driver_series])
            ) - np.log(np.array([series[0, 0] for series in driver_series]))[None, :]
            cont = _regress(_basis_matrix(states, cfg.degree), y)
        else:
            cont = np.full(cfg.n_paths, float(np.mean(y)))

        v_new = cont.copy()
        prev_resid = np.inf
        n_iter = 0
        for n_iter in range(1, cfg.picard_max + 1):
            # Chat(v) = (1+d1)(-v)^+ - (1+d2)(-v)^-, zero at v = 0
            chat = one_p_d1 * np.maximum(-v_new, 0.0) - one_p_d2 * np.maximum(v_new, 0.0)
            candidate = cont - (r_int[j] * v_new + spread_int[j] * chat)
            resid = float(np.max(np.abs(candidate - v_new)) / max(1.0, float(np.max(np.abs(v_new)))))
            v_new = candidate
            if resid < cfg.picard_tol:
                break
            if n_iter == cfg.picard_max and resid > prev_resid:
                raise PicardDivergence(
                    f"slice {j}: residual {resid:.3e} grew past iteration cap {cfg.picard_max}"
                )
            prev_resid = resid
        counts.append(n_iter)
        v = v_new
        surface[:, j] = v
    counts.reverse()
    return BsdeResult(
        v0=float(v[0]),
        surface=surface,
        picard_counts=tuple(counts),
        grid=grid,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
    )
