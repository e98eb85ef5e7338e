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
from xccy.simulation import CHUNK_PATHS, _kernel_tiles, _step_coefficients, sample_mean
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


@pytest.mark.parametrize("process_id", ["fx:USD", "asset:EQ", "asset:FEQ"])
def test_overflowing_level_raises_naming_the_estimate(two_currency_model, process_id):
    # one infinite level: the checkpoint mean is infinite and its error bar NaN
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 200, seed=0)
    paths = scen.paths.copy()
    paths[:, 2:, 17] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=f"non-finite {process_id} checkpoint mean"):
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


def test_family_gate_still_fails_the_injected_drift():
    # the family bound over 12 tests is 3.93, far below the control's |z| ~ 63
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.01, 0.01)}
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 0.9, 0.1)])
    scen = simulate(model, TimeGrid.regular(1.0, 4), 100_000, seed=5, drift_shift={"fx:USD": 0.02})
    reports = run_martingale_suite(scen, threshold=None)
    assert not all(r.passed for r in reports)
    assert xccy.diagnostics.family_p_value(reports) < xccy.diagnostics.FALSE_ALARM


def test_family_threshold_is_the_two_sided_bonferroni_bound():
    per_test_rate = math.erfc(3.0 / math.sqrt(2.0))  # |z| > 3 for one test
    assert xccy.diagnostics.family_threshold(1, per_test_rate) == pytest.approx(3.0, rel=1e-12)
    assert xccy.diagnostics.family_threshold(12) == pytest.approx(3.9346, abs=1e-4)
    assert xccy.diagnostics.family_threshold(0) == xccy.diagnostics.family_threshold(1)


def test_family_p_value_crosses_the_false_alarm_rate_at_the_family_bound():
    diag = xccy.diagnostics
    bound = diag.family_threshold(12)
    degenerate = diag.TestReport("fx:EUR", tuple(diag.CheckpointStat(t, 0.0, 0.0, 0.0) for t in range(4)), bound)

    def family(z_max):
        zs = [z_max, 0.5, -1.0, 2.0] * 3
        stats = [diag.CheckpointStat(1.0, z, 1.0, z) for z in zs]
        return [diag.TestReport(f"asset:{i}", tuple(stats[4 * i:4 * i + 4]), bound) for i in range(3)] + [degenerate]

    assert diag.family_size(c for r in family(1.0) for c in r.checkpoints) == 12
    assert diag.family_p_value(family(bound * (1 - 1e-9))) > diag.FALSE_ALARM
    assert diag.family_p_value(family(bound * (1 + 1e-9))) < diag.FALSE_ALARM
    assert diag.family_p_value(family(-bound * (1 + 1e-9))) < diag.FALSE_ALARM
    assert diag.family_p_value(family(0.0)) == 12 * math.erfc(2.0 / math.sqrt(2.0))  # |z| = 2 is the largest
    assert diag.family_p_value([degenerate]) == 1.0


def test_suite_without_threshold_gates_every_test_at_the_family_bound(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 2000, seed=3)
    per_test = run_martingale_suite(scen)
    family = run_martingale_suite(scen, threshold=None)
    assert [r.checkpoints for r in family] == [r.checkpoints for r in per_test]
    # asset:EQ, asset:FEQ and fx:USD at 4 checkpoints; fx:EUR is degenerate
    assert xccy.diagnostics.family_size(c for r in family for c in r.checkpoints) == 12
    assert {r.threshold for r in family} == {xccy.diagnostics.family_threshold(12)}


def test_asset_processes_pass(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 8), 100_000, seed=43)
    for pid in ("asset:EQ", "asset:FEQ"):
        assert martingale_test(scen, pid).passed


def test_suite_covers_every_driver(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 1000, seed=1)
    reports = run_martingale_suite(scen)
    assert {r.process_id for r in reports} == {"asset:EQ", "asset:FEQ", "fx:EUR", "fx:USD"}


def test_suite_folds_no_block_for_the_domestic_fx_process(three_currency_model, monkeypatch):
    # X B_EUR / B_EUR is identically 0: its report is written without reading a tile,
    # with the bytes it had when every process was folded chunk by chunk
    scen = simulate(three_currency_model, TimeGrid.regular(1.0, 6), 2 * CHUNK_PATHS + 100, seed=3)
    read_by = []
    read = xccy.diagnostics._CheckpointProcess.read

    def recording(process, *args):
        read_by.append(process.process_id)
        return read(process, *args)

    monkeypatch.setattr(xccy.diagnostics._CheckpointProcess, "read", recording)
    reports = run_martingale_suite(scen)
    digest = hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()
    assert digest == "c5f323a8ae1154dc8993204f3fb2e0dd3f958652fece7943d12a310a31787f49"
    # every tile of every chunk is read by each process in turn, never by fx:EUR
    folded = [r.process_id for r in reports if r.process_id != "fx:EUR"]
    assert read_by == folded * (len(read_by) // len(folded))


@pytest.mark.parametrize(
    "n_steps, n_paths, checkpoints, digest",
    [
        # one tile per chunk
        (4, 2 * CHUNK_PATHS + 102, 4, "fbca23e947d59bbb0c657a104fa34f246b04f8f26dbb4dfbf8e6053dbd4c733d"),
        # ten kernel tiles per full chunk and three store tiles; checkpoints on tile edges, between them,
        # and none at the horizon, so a chunk stops reading after its last checkpoint
        (40, CHUNK_PATHS + 100, [0.1, 0.4, 0.55, 0.8],
         "ff4e4a8e15bb37139c96962fb278c371a39306e2ea1121b941297a4085a86f3e"),
    ],
)
def test_suite_and_single_tests_give_the_same_bytes_from_every_chunk_source(
    three_currency_model, n_steps, n_paths, checkpoints, digest
):
    # streamed from the kernel's ring of tiles, read from the store, or read from a whole array; the last
    # chunk is ragged, and the worker count changes neither the chunks nor the order they are folded in
    grid = TimeGrid.regular(1.0, n_steps)
    vol = _step_coefficients(three_currency_model, grid, {})[1]
    assert len(_kernel_tiles(vol, CHUNK_PATHS)[1]) == n_steps // 4
    reference = None
    for n_workers in (1, 2):
        lazy = simulate(three_currency_model, grid, n_paths, seed=8, n_workers=n_workers)
        stored = simulate(three_currency_model, grid, n_paths, seed=8, n_workers=n_workers)
        stored.load()
        for source, scen in (("lazy", lazy), ("stored", stored), ("array", dataclasses.replace(stored, paths=stored.paths))):
            suite = [json.dumps(r.to_dict()) for r in run_martingale_suite(scen, checkpoints)]
            single = [
                json.dumps(martingale_test(scen, json.loads(r)["process_id"], checkpoints).to_dict()) for r in suite
            ]
            assert single == suite, (source, n_workers)
            reference = reference or suite
            assert suite == reference, (source, n_workers)
        assert lazy._store is None  # streamed: nothing was stored
    # the bytes the suite had when each chunk was simulated whole before it was read
    assert hashlib.sha256(json.dumps([json.loads(r) for r in reference]).encode()).hexdigest() == digest


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


def test_reduction_suite_passes_over_several_chunks(single_currency_model):
    # the price takes its leg means chunk by chunk; so does the suite's bare flow expectation
    report = reduction_suite(single_currency_model, n_paths=2 * CHUNK_PATHS + 100, seed=3)
    assert report.passed, report.checks


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
        scen.load()  # simulated before measuring: only the checkpoint statistics are measured
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
