"""Generate correlated scenarios and certify the martingale-measure drifts.

Assets drift at repo-minus-dividend (with a quanto correction when quoted in
a foreign currency), FX rates at the unsecured differential. Paths are
simulated in fixed chunks, each drawing its normals from its own numpy SFC64
stream, spawned from the seed: the draw for (seed, chunk, step, driver, pair)
is a pure function of those integers, the chunk's width, the grid length and
the driver count, so the scenario is bit-identical for any worker count.
"""

import os

import numpy as np

from xccy import TimeGrid, load_model, run_martingale_suite, simulate, validate_model

HERE = os.path.dirname(__file__)
model = validate_model(load_model(os.path.join(HERE, "config", "model.json")))

grid = TimeGrid.regular(1.0, 8)
scen = simulate(model, grid, n_paths=50_000, seed=42)

print("terminal spot means vs forwards:")
fwd_eq = 100.0 * np.exp(0.015 - 0.01)          # repo minus dividend
print(f"  EQ      mean {scen.asset('EQ')[:, -1].mean():9.4f}   forward {fwd_eq:9.4f}")
fwd_fx = 0.9 * np.exp(0.02 - 0.031)            # unsecured differential (USD curve has a knot)
print(f"  fx:USD  mean {scen.fx('USD')[:, -1].mean():9.4f}   forward {fwd_fx:9.4f}")

print("\nmartingale certification (|z| <= 3 at four checkpoints):")
for report in run_martingale_suite(scen, checkpoints=4):
    print(f"  {report.process_id:11s} max |z| = {report.max_abs_z:5.2f}  "
          f"{'PASS' if report.passed else 'FAIL'}")

print("\nnegative control, +2% drift injected into fx:USD:")
bad = simulate(model, grid, 50_000, seed=42, drift_shift={"fx:USD": 0.02})
from xccy import martingale_test

report = martingale_test(bad, "fx:USD")
print(f"  fx:USD max |z| = {report.max_abs_z:5.1f}  {'PASS' if report.passed else 'FAIL (as it should)'}")

print("\ndeterminism across worker counts:")
one = simulate(model, grid, 10_000, seed=7, n_workers=1)
eight = simulate(model, grid, 10_000, seed=7, n_workers=8)
identical = all(
    np.array_equal(one.asset(lab), eight.asset(lab)) for lab in ("EQ", "FEQ")
) and np.array_equal(one.fx("USD"), eight.fx("USD"))
print(f"  1 worker vs 8 workers bit-identical: {identical}")
