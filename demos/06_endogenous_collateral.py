"""Endogenous collateral: the margin tracks the contract's own value.

When the collateral is the haircut mark-to-market of the contract itself, the
valuation is recursive: the value enters its own carry. The solver steps
backward from a zero terminal condition, estimating continuation values by
regression on the log-states and solving the value-dependence of the carry
exactly per time slice: the carry is linear on each sign of the value.

At zero haircuts the recursion collapses to the perfect-collateralization
closed form; positive haircuts over-collateralize and show up as a funding
cost against the hedger.
"""

import os

from xccy import (
    BsdeConfig,
    Contract,
    TimeGrid,
    load_model,
    price_fully_collateralized,
    solve_endogenous,
    validate_model,
)

HERE = os.path.dirname(__file__)
model = validate_model(load_model(os.path.join(HERE, "config", "model.json")))

contract = Contract("EUR", ((1.0, 1.0),))  # hedger receives 1 EUR at T: a liability to fund
cfg = BsdeConfig(grid=TimeGrid.regular(1.0, 50), n_paths=50_000, seed=99)

print("hedger receives 1 EUR at T, collateral = haircut mark in USD")
res = solve_endogenous(model, contract, "USD", 0.0, 0.0, cfg)
closed = price_fully_collateralized(model, contract, "USD")
print(f"  zero haircuts: solver {res.v0:+.6f}  closed form {closed:+.6f} "
      f"(rel err {abs(res.v0 / closed - 1):.1e})")
print(f"  error bar of v0: {res.v0_std_error:.1e} (a EUR payment is deterministic: its rounding floor; "
      "the gap to the closed form is the time step)")

print("\nhaircuts raise the posted margin; the extra carry is a cost to the hedger:")
for d1 in (0.0, 0.1, 0.25, 0.5):
    v0 = solve_endogenous(model, contract, "USD", d1, 0.0, cfg).v0
    print(f"  delta1 = {d1:4.2f}:  v0 = {v0:+.6f}")

print("\nthe domestic-collateral special case discounts at the domestic collateral rate:")
res = solve_endogenous(model, contract, "EUR", 0.0, 0.0, cfg)
import math

print(f"  solver {res.v0:+.6f}  vs  -e^(-rc_e T) = {-math.exp(-0.015):+.6f}")
