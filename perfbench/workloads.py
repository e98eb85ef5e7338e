"""The three benchmark workloads.

Each workload calls the public xccy API in the order the ``xccy`` CLI does:
``load_setup`` loads and validates the model, parses the trade and builds the
grid; ``run`` is the timed part and takes the Monte Carlo seed; ``check``
compares the result with an oracle, outside the timed part. Inputs are the
JSON files under ``inputs/<workload>/``.

- ``price_long_grid``: exogenous ``mark_proxy`` price on 500 paths x 2000
  steps with 20-knot curves, so the per-step and per-flow Python in
  collateral, pricing and curves dominates and RNG does little.
- ``bsde_haircut``: the endogenous-collateral solver with haircuts on
  100k paths x 50 steps at 1 worker, the plain single-thread baseline; the
  paths stay in memory for the cross-sectional regression.
- ``check_3ccy``: the martingale suite and its negative control on a
  3-currency, 6-driver model, 400k paths x 4 steps: wide and short, two
  Philox blocks per (path, step), a 6x6 mixing per step, thread-split.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

from xccy import (
    BsdeConfig,
    CollateralSpec,
    Contract,
    TimeGrid,
    ValidatedModel,
    build_exogenous_path,
    load_model,
    martingale_test,
    price_exogenous,
    price_fully_collateralized,
    run_martingale_suite,
    simulate,
    solve_endogenous,
    validate_model,
)
from xccy.model import cross_currency_basis_integral

from tracing import BSDE_SOLVE, COLLATERAL, DIAGNOSTICS, MODEL_LOAD, PRICING, SIMULATE

INPUTS = Path(__file__).resolve().parent / "inputs"

PRICE_Z_LIMIT = 4.0  # |price - closed form| <= 4 SE
# v0 is deterministic on this trade (it pays the domestic currency, so every
# regression target is constant across paths) and meets the oracle to ~1e-6;
# the haircut moves v0 by ~4.5e-4, so a tolerance between the two catches a
# solver that drops or flips delta2
ORACLE_REL_TOL = 1e-5
NEGATIVE_CONTROL_Z = 10.0  # a +2%/yr drift must show |z| above this
SUITE_THRESHOLD = 3.0  # the CLI's per-test default, reported but not gated
SUITE_FALSE_ALARM = 1e-3  # family-wise false-alarm rate of the martingale gate
NEGATIVE_CONTROL_SHIFT = {"fx:USD": 0.02, "EQ1": 0.02}


@dataclass(frozen=True)
class Setup:
    model: ValidatedModel
    grid: TimeGrid
    n_paths: int
    contract: Contract | None = None
    spec: CollateralSpec | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    n_paths: int
    n_steps: int
    workers: int
    n_simulations: int  # simulate calls per run, for path-steps
    run: Callable  # (setup, seed, workers, tracer) -> result
    check: Callable  # (setup, result) -> (ok, reported values)
    digest: Callable  # result -> str, equal iff the results are byte-identical

    @property
    def path_steps(self) -> int:
        return self.n_paths * self.n_steps * self.n_simulations


def load_setup(workload: Workload, tracer) -> Setup:
    """Model load and validation, trade parse and grid, as ``xccy.cli`` does them."""
    folder = INPUTS / workload.name
    model = tracer.call(MODEL_LOAD, lambda: validate_model(load_model(str(folder / "model.json"))))
    trade = folder / "trade.json"
    if not trade.exists():
        return Setup(model, TimeGrid.regular(1.0, workload.n_steps), workload.n_paths)
    with open(trade, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    contract = Contract.from_dict(doc["contract"])
    spec = CollateralSpec.from_dict(doc["collateral"])
    grid = TimeGrid.regular(contract.maturity, workload.n_steps, include=contract.flow_times)
    return Setup(model, grid, workload.n_paths, contract, spec)


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


# --- price_long_grid ---------------------------------------------------------


def _run_price(s: Setup, seed: int, workers: int, tr):
    scenario = tr.call(SIMULATE, simulate, s.model, s.grid, s.n_paths, seed, n_workers=workers)
    coll = tr.call(COLLATERAL, build_exogenous_path, scenario, s.spec, s.contract)
    return tr.call(PRICING, price_exogenous, scenario, s.contract, coll, s.spec)


def _check_price(s: Setup, report):
    closed = price_fully_collateralized(s.model, s.contract, s.spec.currency)
    z = (report.price - closed) / report.std_error
    values = {"price": report.price, "std_error": report.std_error, "closed_form": closed, "z": z}
    return abs(z) <= PRICE_Z_LIMIT, values


# --- bsde_haircut ------------------------------------------------------------


def _run_bsde(s: Setup, seed: int, workers: int, tr):
    cfg = BsdeConfig(grid=s.grid, n_paths=s.n_paths, seed=seed, degree=2, n_workers=workers)
    k3 = s.spec.currency
    return tr.call(BSDE_SOLVE, solve_endogenous, s.model, s.contract, k3, s.spec.delta1, s.spec.delta2, cfg)


def _bsde_oracle(s: Setup) -> float:
    """Closed form for a value that stays positive on every path.

    With v > 0 the driver is linear, (r - (1 + delta2) s) v with the spread
    s = r_dom - rc_dom - q_k3, so the haircut scales the fully collateralized
    price by exp(delta2 * integral of s).
    """
    model, k3, t = s.model, s.spec.currency, s.contract.maturity
    spread = (
        model.curve(model.domestic, "unsecured").integral(0.0, t)
        - model.curve(model.domestic, "collateral_lend").integral(0.0, t)
        - cross_currency_basis_integral(model, k3, 0.0, t)
    )
    return price_fully_collateralized(model, s.contract, k3) * math.exp(s.spec.delta2 * spread)


def _check_bsde(s: Setup, result):
    oracle = _bsde_oracle(s)
    rel = abs(result.v0 / oracle - 1.0)
    positive = bool((result.surface[:, :-1] > 0).all())
    values = {"v0": result.v0, "oracle": oracle, "rel_err": rel, "value_positive": positive}
    return positive and rel <= ORACLE_REL_TOL, values


# --- check_3ccy --------------------------------------------------------------


def _run_check(s: Setup, seed: int, workers: int, tr):
    scenario = tr.call(SIMULATE, simulate, s.model, s.grid, s.n_paths, seed, n_workers=workers)
    suite = tr.call(DIAGNOSTICS, run_martingale_suite, scenario, checkpoints=4, threshold=SUITE_THRESHOLD)
    del scenario
    bad = tr.call(
        SIMULATE,
        simulate,
        s.model,
        s.grid,
        s.n_paths,
        seed,
        drift_shift=NEGATIVE_CONTROL_SHIFT,
        n_workers=workers,
    )
    control = [tr.call(DIAGNOSTICS, martingale_test, bad, pid) for pid in ("fx:USD", "asset:EQ1")]
    return suite, control


def family_threshold(n_tests: int) -> float:
    """Two-sided Bonferroni bound on |z| for a family-wise false-alarm rate."""
    return NormalDist().inv_cdf(1.0 - SUITE_FALSE_ALARM / (2 * n_tests))


def _check_check(s: Setup, result):
    suite, control = result
    # a degenerate process (the domestic FX account is identically 1) has
    # zero spread and z = 0 exactly, so it cannot raise a false alarm
    n_tests = sum(c.std_error > 0 for r in suite for c in r.checkpoints)
    bound = family_threshold(n_tests)
    max_z = max(r.max_abs_z for r in suite)
    control_z = min(r.max_abs_z for r in control)
    values = {
        "max_abs_z": max_z,
        "family_bound": bound,
        "n_tests": n_tests,
        "passed_at_3": all(r.passed for r in suite),
        "negative_control_min_abs_z": control_z,
    }
    return max_z <= bound and control_z > NEGATIVE_CONTROL_Z, values


def _digest_check(result) -> str:
    suite, control = result
    return _digest([r.to_dict() for r in suite], [r.to_dict() for r in control])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="price_long_grid",
            n_paths=500,
            n_steps=2000,
            workers=1,
            n_simulations=1,
            run=_run_price,
            check=_check_price,
            digest=lambda r: _digest(r.to_dict()),
        ),
        Workload(
            name="bsde_haircut",
            n_paths=100_000,
            n_steps=50,
            workers=1,
            n_simulations=1,
            run=_run_bsde,
            check=_check_bsde,
            digest=lambda r: _digest(r.v0, r.picard_counts, hashlib.sha256(r.surface.tobytes()).hexdigest()),
        ),
        Workload(
            name="check_3ccy",
            n_paths=400_000,
            n_steps=4,
            workers=2,
            n_simulations=2,  # the suite's scenario and the negative control's
            run=_run_check,
            check=_check_check,
            digest=_digest_check,
        ),
    )
}
