"""Path functionals: discounted flows, funding-gain increments, wealth replay.

The replay accumulates the self-financing wealth identity forward over the
grid with predictable (left-endpoint) integrands. Quadratic covariations are
realized as products of same-interval increments. The domestic unsecured
account is the funding residual: whatever gains or flows arrive are absorbed
there, which is exactly the compounding term V~ dB_dom of the wealth identity,
so a strategy never specifies the domestic cash position explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import Contract
from .csvio import write_rows
from .errors import ConfigError, FlowOffGrid, GridMismatch, MissingCollateralRates, MissingRates
from .simulation import ScenarioSet


def discounted_flows(scenario: ScenarioSet, contract: Contract, from_t: float = 0.0) -> np.ndarray:
    """Per-path sum of flows strictly after ``from_t``, in domestic units discounted to 0.

    Computes sum_j a_j * X(t_j) / B_dom(t_j) over flow dates t_j > from_t.
    """
    fx = scenario.fx(contract.native_currency)
    b_e = scenario.account(scenario.model.domestic)
    out = np.zeros(scenario.n_paths)
    for t, amount in contract.flows:
        if t <= from_t:
            continue
        try:
            j = scenario.grid.index_of(t)
        except ConfigError as exc:
            raise FlowOffGrid(f"flow date {t} not on the scenario grid") from exc
        out += amount * fx[:, j] / b_e[j]
    return out


def gain_increments(scenario: ScenarioSet, asset_label: str) -> np.ndarray:
    """Per-step increments of the asset's funding-gain process, domestic units.

    Step j carries S_j dX + X_j dS + dS dX - X_j S_j * (repo integral) +
    X_j S_j * (dividend integral); for domestic assets the FX terms drop and
    this is dS - S r dt + kappa S dt with exact rate integrals.
    """
    model = scenario.model
    a = model.asset(asset_label)
    s = scenario.asset(asset_label)
    x = scenario.fx(a.currency)
    times = scenario.grid.times
    repo_int = a.repo_rate.step_integrals(times)
    div_int = a.dividend_yield.step_integrals(times)
    ds = np.diff(s, axis=1)
    dx = np.diff(x, axis=1)
    s_l, x_l = s[:, :-1], x[:, :-1]
    return s_l * dx + x_l * ds + ds * dx + x_l * s_l * (div_int - repo_int)


def fx_hedge_gain_increments(scenario: ScenarioSet, asset_label: str) -> np.ndarray:
    """Increments of the gain process net of the FX exposure term S dX.

    This is the object whose accumulation must be drift-free under the
    domestic martingale measure for both domestic and foreign assets.
    """
    a = scenario.model.asset(asset_label)
    s = scenario.asset(asset_label)
    x = scenario.fx(a.currency)
    return gain_increments(scenario, asset_label) - s[:, :-1] * np.diff(x, axis=1)


@dataclass(frozen=True)
class Strategy:
    """Predictable positions on the grid.

    Each array has shape (n_steps,) or (n_paths, n_steps); entry j is the
    position held on (t_j, t_{j+1}], decided at t_j. ``xi`` holds units of
    each asset, ``psi_repo`` units of the matching repo account, ``psi_cash``
    units of non-domestic unsecured accounts. The domestic unsecured account
    is always the funding residual and cannot be specified.
    """

    xi: dict[str, np.ndarray]
    psi_repo: dict[str, np.ndarray]
    psi_cash: dict[str, np.ndarray]

    @classmethod
    def empty(cls) -> "Strategy":
        return cls({}, {}, {})

    @classmethod
    def repo_constrained(cls, scenario: ScenarioSet, xi: dict[str, np.ndarray], psi_cash=None) -> "Strategy":
        """Fill repo positions so psi B + xi S = 0 at every node."""
        psi_repo = {}
        for label, units in xi.items():
            s = scenario.asset(label)[:, :-1]
            b = scenario.account(label, "repo")[:-1]
            psi_repo[label] = -np.asarray(units, dtype=float) * s / b
        return cls(dict(xi), psi_repo, dict(psi_cash or {}))

    @classmethod
    def from_dict(cls, doc: dict) -> "Strategy":
        """Positions from a JSON document: per-label arrays under xi / psi_repo / psi_cash."""
        def arrs(key):
            return {k: np.asarray(v, dtype=float) for k, v in doc.get(key, {}).items()}

        return cls(xi=arrs("xi"), psi_repo=arrs("psi_repo"), psi_cash=arrs("psi_cash"))


@dataclass(frozen=True)
class WealthPath:
    """Replayed wealth; all arrays are (n_paths, n_times) in domestic units."""

    v: np.ndarray
    v_portfolio: np.ndarray
    v_adjustment: np.ndarray
    v_net: np.ndarray

    def to_csv(self, grid, path: str) -> None:
        """Columnar dump: path_id, time, wealth, portfolio, adjustment, netted."""
        path_ids = np.arange(self.v.shape[0])[:, None]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("path_id,time,v,v_portfolio,v_adjustment,v_net\n")
            write_rows(fh, path_ids, grid.times, self.v, self.v_portfolio, self.v_adjustment, self.v_net)


def _position(arr, n_paths: int, n_steps: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != n_steps:
            raise GridMismatch(f"{what}: expected {n_steps} steps, got {arr.shape[0]}")
        return arr[None, :]
    if arr.shape != (n_paths, n_steps):
        raise GridMismatch(f"{what}: expected shape ({n_paths}, {n_steps}), got {arr.shape}")
    return arr


def replay_wealth(
    scenario: ScenarioSet,
    strategy: Strategy,
    contract: Contract,
    x: float = 0.0,
    collateral=None,
    collateral_spec=None,
) -> WealthPath:
    """Forward accumulation of the hedger's wealth for a given strategy.

    With no positions and no contract the result is exactly x * B_dom(t).
    When a collateral path and spec are supplied, the convention-specific
    adjustment stream (and, for risky collateral, the posted-asset hedge
    term) is added to the dynamics, and the wealth splits into portfolio and
    adjustment components.
    """
    from .collateral import adjustment_increments, collateral_value_adjustment  # local: avoid cycle

    model = scenario.model
    grid = scenario.grid
    n_paths, n_steps = scenario.n_paths, grid.n_steps
    n_times = n_steps + 1
    b_e = scenario.account(model.domestic)

    xi = {k: _position(v, n_paths, n_steps, f"xi[{k}]") for k, v in strategy.xi.items()}
    psi_repo = {k: _position(v, n_paths, n_steps, f"psi_repo[{k}]") for k, v in strategy.psi_repo.items()}
    psi_cash = {
        k: _position(v, n_paths, n_steps, f"psi_cash[{k}]")
        for k, v in strategy.psi_cash.items()
        if k != model.domestic
    }

    gains = {label: gain_increments(scenario, label) for label in xi}

    # deterministic account ratios on the grid
    repo_over_dom = {
        label: scenario.account(label, "repo") / b_e for label in set(xi) | set(psi_repo)
    }
    disc_fx_account = {}
    for cur in psi_cash:
        disc_fx_account[cur] = scenario.fx(cur) * scenario.account(cur)[None, :] / b_e[None, :]

    # contractual flows in (t_j, t_{j+1}], converted at the flow date
    flow_inc = np.zeros((n_paths, n_steps))
    fx_k2 = scenario.fx(contract.native_currency)
    for t, amount in contract.flows:
        try:
            j = grid.index_of(t)
        except ConfigError as exc:
            raise FlowOffGrid(f"flow date {t} not on the scenario grid") from exc
        if j == 0:
            raise FlowOffGrid("flows at t=0 belong in Contract.initial_flow")
        flow_inc[:, j - 1] += amount * fx_k2[:, j]

    coll_inc = None
    v_adj = np.zeros((n_paths, n_times))
    if collateral is not None:
        if collateral_spec is None:
            raise MissingCollateralRates("collateral path supplied without a CollateralSpec")
        try:
            coll_inc = adjustment_increments(scenario, collateral, collateral_spec, fx_term="increments")
            if collateral_spec.form == "risky":
                s_coll = scenario.asset(collateral_spec.posted_asset)
                x_k3 = scenario.fx(collateral_spec.currency)
                units = collateral.posted[:, :-1] / s_coll[:, :-1]
                hedge = units * (
                    gain_increments(scenario, collateral_spec.posted_asset)
                    - s_coll[:, :-1] * np.diff(x_k3, axis=1)
                )
                coll_inc = coll_inc + hedge
            v_adj = collateral_value_adjustment(scenario, collateral, collateral_spec)
        except MissingRates as exc:
            raise MissingCollateralRates(str(exc)) from exc

    v = np.empty((n_paths, n_times))
    v[:, 0] = x + contract.initial_flow * fx_k2[:, 0]
    zero = np.zeros((1, n_steps))
    for j in range(n_steps):
        # compounding of total wealth through the domestic account
        dv = v[:, j] * (b_e[j + 1] / b_e[j] - 1.0)
        for label in sorted(set(xi) | set(psi_repo)):
            u_xi = xi.get(label, zero)[:, j]
            u_psi = psi_repo.get(label, zero)[:, j]
            s = scenario.asset(label)
            b_repo = scenario.account(label, "repo")
            x_cur = scenario.fx(model.asset(label).currency)
            if label in xi:
                dv = dv + u_xi * gains[label][:, j]
            # repo-account mismatch carry: zero under the repo constraint
            zeta = u_psi * b_repo[j] + u_xi * s[:, j]
            ratio = repo_over_dom[label]
            dv = dv + (b_e[j] / b_repo[j]) * zeta * x_cur[:, j] * (ratio[j + 1] - ratio[j])
            # FX exposure of the repo position
            dv = dv + b_repo[j] * u_psi * (x_cur[:, j + 1] - x_cur[:, j])
        for cur in sorted(psi_cash):
            acc = disc_fx_account[cur]
            dv = dv + b_e[j] * psi_cash[cur][:, j] * (acc[:, j + 1] - acc[:, j])
        dv = dv + flow_inc[:, j]
        if coll_inc is not None:
            dv = dv + coll_inc[:, j]
        v[:, j + 1] = v[:, j] + dv

    # netted wealth: strip the unhedged funded position in the contract
    funded = np.zeros((n_paths, n_times))
    running = (contract.initial_flow * fx_k2[:, 0] / b_e[0]).copy()
    funded[:, 0] = running * b_e[0]
    flow_by_index: dict[int, np.ndarray] = {}
    for t, amount in contract.flows:
        j = grid.index_of(t)
        flow_by_index[j] = flow_by_index.get(j, 0.0) + amount * fx_k2[:, j]
    for j in range(1, n_times):
        if j in flow_by_index:
            running = running + flow_by_index[j] / b_e[j]
        funded[:, j] = running * b_e[j]
    v_net = v - funded

    return WealthPath(v=v, v_portfolio=v - v_adj, v_adjustment=v_adj, v_net=v_net)
