"""Path functionals: discounted flows, funding-gain increments, wealth replay.

The replay is the self-financing wealth identity in discounted form,
d(V / B_dom) = dG / B_dom, where dG holds every gain except the compounding of
V itself: asset funding gains, repo carry, the FX exposure of repo and cash
positions, contract flows and collateral increments. Each gain is a
(n_paths, n_steps) array of predictable (left-endpoint) integrands, with
quadratic covariations realized as products of same-interval increments, so V
is one cumulative sum. The domestic unsecured account is the funding
residual: it absorbs whatever gains or flows arrive, which is exactly the
compounding term, so a strategy never specifies the domestic cash position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collateral import adjustment_increments, collateral_value_adjustment
from .contracts import Contract
from .csvio import write_rows
from .errors import ConfigError, FlowOffGrid, GridMismatch, MissingCollateralRates, MissingRates
from .simulation import ScenarioSet, TimeGrid


def flow_nodes(grid: TimeGrid, contract: Contract) -> np.ndarray:
    """Grid index of each of ``contract.flows``, the one flows-on-grid map.

    A date off the grid, or one that snaps onto node 0, raises :class:`FlowOffGrid`.
    """
    try:
        nodes = grid.nodes_of(contract.flow_times)
    except ConfigError as exc:
        raise FlowOffGrid(f"flow date not on the scenario grid: {exc}") from exc
    if np.any(nodes == 0):
        raise FlowOffGrid("flows at t=0 belong in Contract.initial_flow")
    return nodes


def flow_amounts(grid: TimeGrid, contract: Contract) -> np.ndarray:
    """The contract's amounts per grid node, (n_times,): flows on one node add up, and node 0 is 0."""
    amounts = np.zeros(len(grid.times))
    np.add.at(amounts, flow_nodes(grid, contract), [a for _, a in contract.flows])
    return amounts


def discounted_flows(scenario: ScenarioSet, contract: Contract) -> np.ndarray:
    """Per-path sum of the contract's flows in domestic units discounted to 0.

    Computes sum_j a_j * X(t_j) / B_dom(t_j); every flow date must be a grid node.
    """
    fx = scenario.fx(contract.native_currency)
    b_e = scenario.account(scenario.model.domestic)
    out = np.zeros(scenario.n_paths)
    for (_, amount), j in zip(contract.flows, flow_nodes(scenario.grid, contract)):
        out += amount * fx[:, j] / b_e[j]
    return out


def hedge_operands(scenario: ScenarioSet, asset_label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The asset's (n_paths, n_times) paths S, those of its currency's FX rate X, and its per-step carry.

    The carry of step j is the dividend integral less the repo integral over
    it, exact for piecewise-constant rates: the operands of :func:`hedged_gain_step`.
    """
    a = scenario.model.asset(asset_label)
    times = scenario.grid.times
    carry = a.dividend_yield.step_integrals(times) - a.repo_rate.step_integrals(times)
    return scenario.asset(asset_label), scenario.fx(a.currency), carry


def hedged_gain_step(x_next, s_next, x, s, carry, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """X_{j+1} (S_{j+1} - S_j) + X_j S_j carry_j, the FX-hedged gain over a step, written to ``out``.

    The one definition of that step. The operands broadcast elementwise, so
    they may be whole (n_paths, n_steps) blocks or one step's rows of a path
    chunk; ``scratch`` is a buffer of the shape of ``out``.
    """
    np.subtract(s_next, s, out=out)
    np.multiply(x_next, out, out=out)
    np.multiply(x, s, out=scratch)
    np.multiply(scratch, carry, out=scratch)
    return np.add(out, scratch, out=out)


def fx_hedge_gain_increments(scenario: ScenarioSet, asset_label: str) -> np.ndarray:
    """Per-step gain increments of the asset net of its FX exposure term S dX, domestic units.

    Step j carries X_{j+1} dS + X_j S_j * (dividend integral - repo integral)
    (:func:`hedged_gain_step`), with exact rate integrals. This is the object
    whose accumulation must be drift-free under the domestic martingale
    measure for both domestic and foreign assets; for a domestic asset it is
    dS - S r dt + kappa S dt.
    """
    s, x, carry = hedge_operands(scenario, asset_label)
    out = np.empty((scenario.n_paths, scenario.grid.n_steps))
    return hedged_gain_step(x[:, 1:], s[:, 1:], x[:, :-1], s[:, :-1], carry, out, np.empty_like(out))


def gain_increments(scenario: ScenarioSet, asset_label: str) -> np.ndarray:
    """Per-step increments of the asset's funding-gain process, domestic units.

    The FX-hedged gain of :func:`fx_hedge_gain_increments` plus the FX exposure
    S_j dX; together S_j dX + X_j dS + dS dX - X_j S_j * (repo integral) +
    X_j S_j * (dividend integral). For domestic assets dX = 0 and this is
    dS - S r dt + kappa S dt.
    """
    s = scenario.asset(asset_label)
    x = scenario.fx(scenario.model.asset(asset_label).currency)
    return fx_hedge_gain_increments(scenario, asset_label) + s[:, :-1] * np.diff(x, axis=1)


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
            b = scenario.repo_account(label)[:-1]
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
    """Wealth of the hedger for a given strategy, from the discounted identity.

    With no positions and no contract the result is exactly x * B_dom(t).
    When a collateral path and spec are supplied, the convention-specific
    adjustment stream (and, for risky collateral, the FX-hedged gain of the
    posted shares) is added to the gains, and the wealth splits into portfolio and
    adjustment components.
    """
    model = scenario.model
    n_paths, n_steps = scenario.n_paths, scenario.grid.n_steps
    b_e = scenario.account(model.domestic)

    xi = {k: _position(v, n_paths, n_steps, f"xi[{k}]") for k, v in strategy.xi.items()}
    psi_repo = {k: _position(v, n_paths, n_steps, f"psi_repo[{k}]") for k, v in strategy.psi_repo.items()}
    psi_cash = {
        k: _position(v, n_paths, n_steps, f"psi_cash[{k}]")
        for k, v in strategy.psi_cash.items()
        if k != model.domestic
    }

    # contractual flows at their nodes, converted at the flow date; node 0 holds the initial flow
    amounts = flow_amounts(scenario.grid, contract)
    amounts[0] = contract.initial_flow
    flow = amounts * scenario.fx(contract.native_currency)

    # every gain over (t_j, t_{j+1}] except the compounding of V through the domestic account
    gain = flow[:, 1:].copy()
    zero = np.zeros((1, n_steps))
    for label in sorted(set(xi) | set(psi_repo)):
        u_xi = xi.get(label, zero)
        u_psi = psi_repo.get(label, zero)
        s = scenario.asset(label)[:, :-1]
        b_repo = scenario.repo_account(label)
        x_cur = scenario.fx(model.asset(label).currency)
        if label in xi:
            gain += u_xi * gain_increments(scenario, label)
        # repo-account mismatch carry: zero under the repo constraint
        zeta = u_psi * b_repo[:-1] + u_xi * s
        gain += (b_e[:-1] / b_repo[:-1]) * zeta * x_cur[:, :-1] * np.diff(b_repo / b_e)
        # FX exposure of the repo position
        gain += b_repo[:-1] * u_psi * np.diff(x_cur, axis=1)
    for cur, units in psi_cash.items():
        gain += b_e[:-1] * units * np.diff(scenario.fx(cur) * scenario.account(cur) / b_e, axis=1)

    v_adj = np.zeros((n_paths, n_steps + 1))
    if collateral is not None:
        if collateral_spec is None:
            raise MissingCollateralRates("collateral path supplied without a CollateralSpec")
        try:
            gain += adjustment_increments(scenario, collateral, collateral_spec)
            if collateral_spec.form == "risky":  # the posted asset is quoted in k3 (check_collateral_spec)
                label = collateral_spec.posted_asset
                units = collateral.posted[:, :-1] / scenario.asset(label)[:, :-1]
                gain += units * fx_hedge_gain_increments(scenario, label)
            v_adj = collateral_value_adjustment(scenario, collateral, collateral_spec)
        except MissingRates as exc:
            raise MissingCollateralRates(str(exc)) from exc

    # d(V / B_dom) = dG / B_dom; the funded leg accumulates the flows alone
    v = np.empty((n_paths, n_steps + 1))
    v[:, 0] = (x + flow[:, 0]) / b_e[0]
    np.cumsum(gain / b_e[1:], axis=1, out=v[:, 1:])
    v[:, 1:] += v[:, :1]
    v *= b_e
    funded = np.cumsum(flow / b_e, axis=1) * b_e
    return WealthPath(v=v, v_portfolio=v - v_adj, v_adjustment=v_adj, v_net=v - funded)
