import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    Contract,
    CollateralPath,
    CollateralSpec,
    FxSpec,
    TimeGrid,
    martingale_test,
    price_exogenous,
    reduction_suite,
    run_martingale_suite,
    simulate,
)
import xccy.diagnostics
from xccy.curves import RateCurve
from xccy.errors import ConfigError, NumericalError, UnknownProcessId
from xccy.simulation import CHUNK_PATHS, sample_mean
from xccy.wealth import fx_hedge_gain_increments


def test_domestic_fx_process_is_degenerate_pass(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 200, seed=0)
    report = martingale_test(scen, "fx:EUR")
    assert report.passed
    assert all(c.z == 0.0 and c.std_error == 0.0 for c in report.checkpoints)


@pytest.mark.parametrize("checkpoints", [0, -1, []])
def test_empty_checkpoints_rejected(two_currency_model, checkpoints):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=0)
    with pytest.raises(ConfigError):
        martingale_test(scen, "fx:USD", checkpoints)


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
def test_threshold_must_be_finite_and_positive(two_currency_model, threshold):
    # at 0 or below every test fails, at nan every comparison fails, at inf every test passes
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=0)
    with pytest.raises(ConfigError):
        martingale_test(scen, "fx:USD", threshold=threshold)


def test_checkpoint_at_time_zero_rejected(two_currency_model):
    # the process starts at 0 on every path, so a t=0 checkpoint would certify anything
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=0, drift_shift={"fx:USD": 0.5})
    with pytest.raises(ConfigError):
        martingale_test(scen, "fx:USD", [0.0])
    with pytest.raises(ConfigError):
        martingale_test(scen, "fx:USD", [1.0, 0.0])
    with pytest.raises(ConfigError, match="snaps onto"):
        martingale_test(scen, "fx:USD", [1e-10])  # within the snap tolerance of t=0


@pytest.mark.parametrize("process_id", ["fx:USD", "asset:EQ", "asset:FEQ"])
def test_non_finite_statistics_raise_instead_of_passing(two_currency_model, process_id):
    # a NaN mean and SE gave z = 0 (scale > 0 is false for NaN), which passes any threshold
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 200, seed=0)
    paths = scen.paths.copy()
    paths[:, 2, 17] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        martingale_test(dataclasses.replace(scen, paths=paths), process_id)


def test_fx_process_passes_under_martingale_measure(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=41)
    report = martingale_test(scen, "fx:USD")
    assert report.passed
    assert report.max_abs_z <= 3


def test_injected_drift_fails_loudly():
    # sigma_X = 0.1, T = 1, +2% drift: expected |z| ~ 0.02 / (0.1 / sqrt(1e5)) ~ 63
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.01, 0.01)}
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    scen = simulate(model, TimeGrid.regular(1.0, 4), 100_000, seed=5, drift_shift={"fx:USD": 0.02})
    report = martingale_test(scen, "fx:USD")
    assert not report.passed
    assert report.max_abs_z > 10


def test_asset_processes_pass(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=43)
    for pid in ("asset:EQ", "asset:FEQ"):
        assert martingale_test(scen, pid).passed


def test_suite_covers_every_driver(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 1000, seed=1)
    reports = run_martingale_suite(scen)
    assert {r.process_id for r in reports} == {"asset:EQ", "asset:FEQ", "fx:EUR", "fx:USD"}


def test_suite_folds_no_block_for_the_domestic_fx_process(three_currency_model, monkeypatch):
    # X B_EUR / B_EUR is identically 0: its report is written without building a block,
    # with the bytes it had when every process was folded chunk by chunk
    scen = simulate(three_currency_model, TimeGrid.regular(1.0, 6), 2 * CHUNK_PATHS + 100, seed=3)
    built = []
    blocks = xccy.diagnostics._checkpoint_blocks

    def recording(scenario, process_id, nodes):
        built.append(process_id)
        return blocks(scenario, process_id, nodes)

    monkeypatch.setattr("xccy.diagnostics._checkpoint_blocks", recording)
    reports = run_martingale_suite(scen)
    digest = hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()
    assert digest == "f7447d5a4f44fb5b013ba5ef2799958cdfcdebfac8ecad4ff2d887984e28d471"
    assert built == [r.process_id for r in reports if r.process_id != "fx:EUR"]


def test_unknown_process_id(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=1)
    with pytest.raises(UnknownProcessId):
        martingale_test(scen, "asset:NOPE")
    with pytest.raises(UnknownProcessId):
        martingale_test(scen, "bogus:EQ")


def test_reduction_suite_passes_on_single_currency(single_currency_model):
    report = reduction_suite(single_currency_model, n_paths=2000, seed=3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "uncollateralized-price-reduction" in names
    # all four conventions checked
    assert sum(1 for n in names if n.startswith("fx-term-vanishes")) == 4


def test_reduction_suite_requires_single_currency(two_currency_model):
    with pytest.raises(ConfigError):
        reduction_suite(two_currency_model)


def test_frozen_fx_degenerate_model_prices_like_domestic():
    # two currencies with sigma_X = 0 and equal rates everywhere: pricing a
    # foreign contract equals pricing the FX-converted domestic contract
    rates = {
        "EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02),
        "USD": curveset(0.02, 0.015, 0.015, cash_post=0.02),
    }
    assets = [AssetSpec("EQ", "EUR", 100.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.02))]
    model = build_model(
        [("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.8, 0.0)]
    )
    scen = simulate(model, TimeGrid.regular(1.0, 10), 3000, seed=9)
    spec = CollateralSpec(currency="EUR")
    zero = CollateralPath(np.zeros((3000, 11)), "EUR")
    foreign = price_exogenous(scen, Contract("USD", ((1.0, -2.0), (0.5, 1.0))), zero, spec)
    domestic = price_exogenous(scen, Contract("EUR", ((1.0, -1.6), (0.5, 0.8))), zero, spec)
    assert abs(foreign.price - domestic.price) < 1e-12


def _reference_process_values(scenario, process_id):
    """Full (n_paths, n_times) process matrix, as the per-checkpoint loop below consumed it."""
    kind, _, name = process_id.partition(":")
    if kind == "asset":
        inc = fx_hedge_gain_increments(scenario, name) / scenario.repo_account(name)[None, :-1]
        out = np.zeros((scenario.n_paths, len(scenario.grid.times)))
        out[:, 1:] = np.cumsum(inc, axis=1)
        return out
    vals = scenario.fx(name) * (scenario.account(name) / scenario.account(scenario.model.domestic))[None, :]
    return vals - vals[:, :1]


def _reference_checkpoint_loop(scenario, process_id, checkpoints):
    """One column reduction per checkpoint of the full process matrix through
    sample_mean, with the zero-spread branch."""
    grid = scenario.grid
    if isinstance(checkpoints, int):
        idx = np.unique(np.linspace(0, grid.n_steps, checkpoints + 1).round().astype(int))[1:]
        times = [float(grid.times[i]) for i in idx]
    else:
        times = [float(t) for t in checkpoints]
    values = _reference_process_values(scenario, process_id)
    stats = []
    for t in times:
        mean, se = map(float, sample_mean(values[:, int(np.argmin(np.abs(grid.times - t)))]))
        z = (0.0 if mean == 0.0 else math.inf) if se == 0.0 else mean / se
        stats.append((t, mean, se, z))
    return stats


@pytest.mark.parametrize("checkpoints", [4, 3, [0.25, 1.0], [0.875, 0.5, 0.5]])
def test_checkpoint_statistics_match_the_column_loop_bit_for_bit(two_currency_model, checkpoints):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 20_002, seed=12)
    for pid in ("asset:EQ", "asset:FEQ", "fx:EUR", "fx:USD"):
        got = [(c.t, c.mean, c.std_error, c.z) for c in martingale_test(scen, pid, checkpoints).checkpoints]
        assert got == _reference_checkpoint_loop(scen, pid, checkpoints), pid


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_statistics_take_memory_of_a_few_chunks_whatever_the_path_count(two_currency_model):
    # the process is built chunk by chunk on reused buffers, never as (n_checkpoints, n_paths)
    grid = TimeGrid.regular(1.0, 4)
    peaks = []
    for n_paths in (2 * CHUNK_PATHS, 16 * CHUNK_PATHS):
        scen = simulate(two_currency_model, grid, n_paths, seed=4)
        pids = ("asset:EQ", "asset:FEQ", "fx:EUR", "fx:USD")
        peaks.append(max(_peak_traced_bytes(lambda: martingale_test(scen, pid)) for pid in pids))
        del scen
    assert abs(peaks[1] - peaks[0]) <= 4 * CHUNK_PATHS * 8, peaks


def _frozen_fx_model():
    rates = {"EUR": curveset(0.02, 0.015, 0.015), "USD": curveset(0.03, 0.022, 0.022)}
    assets = [AssetSpec("FEQ", "USD", 50.0, 0.25, RateCurve.flat(0.0), RateCurve.flat(0.028))]
    return build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.0)])


def test_checkpoint_std_error_matches_the_spread_over_seeds(two_currency_model):
    # the error bar of a checkpoint mean must describe how that mean moves from
    # seed to seed; under antithetic pairs a per-path one would overstate it
    grid = TimeGrid.regular(1.0, 8)
    stats = [
        martingale_test(simulate(two_currency_model, grid, 4000, seed=seed), "fx:USD", [1.0]).checkpoints[0]
        for seed in range(11, 31)
    ]
    spread = np.std([c.mean for c in stats], ddof=1)
    median_se = np.median([c.std_error for c in stats])
    assert 0.5 * spread <= median_se <= 2.0 * spread


def test_zero_volatility_fx_pair_passes_its_martingale_test():
    # X B_f / B_dom is deterministic: its mean sits at rounding level with zero spread
    scen = simulate(_frozen_fx_model(), TimeGrid.regular(1.0, 4), 2000, seed=0)
    report = martingale_test(scen, "fx:USD")
    assert report.passed
    assert all(math.isfinite(c.z) for c in report.checkpoints)
    assert all(r.passed for r in run_martingale_suite(scen))


def test_zero_volatility_fx_pair_with_a_tiny_drift_fails():
    scen = simulate(_frozen_fx_model(), TimeGrid.regular(1.0, 4), 2000, seed=0, drift_shift={"fx:USD": 1e-6})
    report = martingale_test(scen, "fx:USD")
    assert not report.passed
    assert all(c.std_error < 1e-15 for c in report.checkpoints)
    assert math.isfinite(report.max_abs_z)


def test_one_path_has_no_error_bar(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 1, seed=0)
    with pytest.raises(ConfigError):
        martingale_test(scen, "fx:USD")
