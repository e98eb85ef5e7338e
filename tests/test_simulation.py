import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model, curveset, peak_traced_bytes
from xccy import (
    AssetSpec,
    FxSpec,
    TimeGrid,
    cross_currency_basis,
    qe_drift_of,
    simulate,
)
from xccy.bsde import BsdeConfig
from xccy.curves import RateCurve, cash_account_value
from xccy.errors import ConfigError, DomesticPairRequested, EmptyGrid, UnknownCurrency, ZeroPaths
from xccy.model import CorrelationMatrix
from xccy.rng import chunk_stream, normal_block
from xccy.simulation import (
    CHUNK_PATHS,
    TILE_BYTES,
    UNIT_RATE,
    _level_tiles,
    _ring_shape,
    _simulate_log_chunk,
    _step_coefficients,
    check_error_bar_paths,
    chunk_columns,
    pair_moments,
    row_tiles,
    run_chunks,
    sample_mean,
    worker_threads,
)


def drift_at(model, label, t):
    """Instantaneous drift of a driver at t."""
    return qe_drift_of(model, label, lambda curve: curve.rate(t))


def test_grid_snaps_flow_dates_exactly():
    grid = TimeGrid.regular(1.0, 3, include=[0.3333333333333333, 0.75])
    assert 0.3333333333333333 in grid.times
    assert 0.75 in grid.times
    assert grid.times[0] == 0.0 and grid.times[-1] == 1.0


def test_grid_rejects_degenerate_inputs():
    with pytest.raises(EmptyGrid):
        TimeGrid([0.0])
    with pytest.raises(EmptyGrid):
        TimeGrid([0.1, 0.5])
    with pytest.raises(EmptyGrid):
        TimeGrid.regular(0.0, 5)


@pytest.mark.parametrize(
    "build, error, message",
    [
        # NaN compares false to 0, so the ascending check alone let it through to an IndexError in simulate
        (lambda: TimeGrid([0.0, math.nan, 1.0]), EmptyGrid, r"grid times must be finite, got \[0.0, nan, 1.0\]"),
        (lambda: TimeGrid([0.0, math.inf]), EmptyGrid, "grid times must be finite"),
        (lambda: TimeGrid([0.0, 1.0, 0.5]), EmptyGrid, "strictly ascending"),
        (lambda: TimeGrid.regular(math.nan, 4), EmptyGrid, "bad horizon/steps: nan"),
        (lambda: TimeGrid.regular(math.inf, 4), EmptyGrid, "bad horizon/steps: inf"),
        (lambda: TimeGrid.regular(1.0, 4, include=[1.5]), ConfigError, r"date 1.5 outside \[0, 1.0\]"),
    ],
    ids=["nan time", "infinite time", "not ascending", "nan horizon", "infinite horizon", "date past horizon"],
)
def test_bad_grid_rejected_naming_the_value(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_domestic_asset_drift_is_repo_minus_dividend(two_currency_model):
    assert drift_at(two_currency_model, "EQ", 0.5) == pytest.approx(0.015 - 0.01, abs=1e-15)


def test_foreign_asset_drift_has_quanto_correction(two_currency_model):
    # repo 0.028, no dividends, rho(FEQ, fx:USD) = -0.4, sigma_S = 0.25, sigma_X = 0.1
    expected = 0.028 - 0.0 - (-0.4) * 0.25 * 0.1
    assert drift_at(two_currency_model, "FEQ", 0.0) == pytest.approx(expected, abs=1e-15)


def test_foreign_asset_zero_correlation_drops_correction():
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.01, 0.005, 0.005)}
    assets = [AssetSpec("F", "USD", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 1.0, 0.1)])
    assert drift_at(model, "F", 0.0) == pytest.approx(0.01, abs=1e-15)


def test_quanto_correction_direct_substitution():
    # r=0.01, kappa=0, rho=1, sigma_S=0.2, sigma_X=0.1 -> drift = 0.01 - 0.02 = -0.01
    rates = {"EUR": curveset(0.0, 0.0, 0.0), "USD": curveset(0.0, 0.0, 0.0)}
    assets = [AssetSpec("F", "USD", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    corr = CorrelationMatrix(["F", "fx:USD"], [[1.0, 1.0], [1.0, 1.0]])
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 1.0, 0.1)], corr)
    assert drift_at(model, "F", 0.0) == pytest.approx(-0.01, abs=1e-15)


def test_fx_drift_is_unsecured_differential(two_currency_model):
    assert drift_at(two_currency_model, "fx:USD", 0.2) == pytest.approx(0.02 - 0.03, abs=1e-15)
    with pytest.raises(DomesticPairRequested):
        drift_at(two_currency_model, "fx:EUR", 0.0)


@given(
    r_e=st.floats(-0.05, 0.08),
    r_k=st.floats(-0.05, 0.08),
    rc_e=st.floats(-0.05, 0.08),
    rc_k=st.floats(-0.05, 0.08),
)
@settings(max_examples=100, deadline=None)
def test_fx_drift_equals_collateral_differential_plus_basis(r_e, r_k, rc_e, rc_k):
    rates = {"EUR": curveset(r_e, rc_e, rc_e), "USD": curveset(r_k, rc_k, rc_k)}
    model = build_model([("EUR", True), ("USD", False)], rates, fx=[FxSpec("USD", 1.0, 0.1)])
    lhs = drift_at(model, "fx:USD", 0.0)
    rhs = (rc_e - rc_k) + cross_currency_basis(model, "USD", 0.0)
    assert abs(lhs - rhs) <= 1e-15


def test_zero_volatility_paths_are_deterministic_exponentials():
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.05, 0.01, 0.01)}
    assets = [AssetSpec("EQ", "EUR", 100.0, 1e-12, RateCurve.flat(0.01), RateCurve.flat(0.03))]
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 2.0, 1e-12)])
    grid = TimeGrid.regular(2.0, 4)
    scen = simulate(model, grid, 3, seed=0)
    for j, t in enumerate(grid.times):
        assert scen.asset("EQ")[:, j] == pytest.approx(100.0 * math.exp(0.02 * t), rel=1e-6)
        assert scen.fx("USD")[:, j] == pytest.approx(2.0 * math.exp(-0.03 * t), rel=1e-6)


def test_fx_discounted_account_is_empirical_martingale(two_currency_model):
    grid = TimeGrid.regular(1.0, 8)
    scen = simulate(two_currency_model, grid, 100_000, seed=2024)
    mean, se = sample_mean(scen.fx("USD")[:, -1] * scen.account("USD")[-1] / scen.account("EUR")[-1])
    assert abs(mean - 0.9) <= 3 * se


def test_one_step_log_return_correlation():
    rates = {"EUR": curveset(0.0, 0.0, 0.0)}
    assets = [
        AssetSpec("A", "EUR", 1.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.0)),
        AssetSpec("B", "EUR", 1.0, 0.3, RateCurve.flat(0.0), RateCurve.flat(0.0)),
    ]
    corr = CorrelationMatrix(["A", "B"], [[1.0, 0.5], [0.5, 1.0]])
    model = build_model([("EUR", True)], rates, assets, correlation=corr)
    scen = simulate(model, TimeGrid([0.0, 1.0]), 100_000, seed=7)
    ra = np.log(scen.asset("A")[:, 1])
    rb = np.log(scen.asset("B")[:, 1])
    rho = np.corrcoef(ra, rb)[0, 1]
    assert rho == pytest.approx(0.5, abs=0.01)


def test_positivity_and_domestic_fx_identity(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 5), 500, seed=1)
    assert np.all(scen.asset("EQ") > 0)
    assert np.all(scen.asset("FEQ") > 0)
    assert np.all(scen.fx("USD") > 0)
    assert np.array_equal(scen.fx("EUR"), np.ones((500, 6)))


def test_domestic_fx_is_a_read_only_view_of_one(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 5), 500, seed=1)
    x = scen.fx("EUR")
    assert np.array_equal(x, np.ones((500, 6)))
    assert not x.flags.writeable
    assert x.strides == (0, 0)  # one broadcast scalar, no (n_paths, n_times) buffer
    assert x.base.nbytes == 8


def test_bit_identical_across_worker_counts(two_currency_model):
    grid = TimeGrid.regular(1.0, 6)
    for n_paths in (1000, 2 * CHUNK_PATHS + 1000):  # one chunk; three, the last ragged
        one = simulate(two_currency_model, grid, n_paths, seed=5, n_workers=1)
        eight = simulate(two_currency_model, grid, n_paths, seed=5, n_workers=8)
        for label in ("EQ", "FEQ"):
            assert np.array_equal(one.asset(label), eight.asset(label))
        assert np.array_equal(one.fx("USD"), eight.fx("USD"))


def _driver_major_chunk(block, seed, drift, vol, x0, chunk):
    """Reference: a driver-major kernel on explicitly paired normals, writing every driver.

    Path 2i reads pair i of each factor's normals and path 2i+1 its
    negation: the two are interleaved here, before any mixing, so path 2i+1
    is the negated-normals twin of path 2i by construction. Each driver's
    (count, n_times) block is its drift plus the mixed normals, summed in
    factor order, stepped with a row-wise cumsum and copied into the
    time-major ``block``.
    """
    n_drivers, n_times, count = block.shape
    n_factors = vol.shape[1]
    # every factor's whole step-major (step, pair) stream in one draw, viewed as (pair, step, factor)
    shape = (1, n_times - 1, -(-count // 2))
    drawn = np.concatenate([normal_block(chunk_stream(seed, chunk, k), np.empty(shape)) for k in range(n_factors)])
    half = drawn.transpose(2, 1, 0)
    z = np.stack([half, -half], axis=1).reshape(-1, n_times - 1, n_factors)[:count]
    ref = np.empty((n_drivers, count, n_times))
    for d in range(n_drivers):
        mixed = np.zeros((count, n_times - 1))
        for k in range(n_factors):
            if vol[d, k].any():
                mixed += vol[d, k] * z[:, :, k]
        logs = ref[d]
        logs[:, 0] = 0.0
        logs[:, 1:] = drift[d] + mixed
        np.cumsum(logs, axis=1, out=logs)
        np.exp(logs, out=logs)
        logs *= x0[d]
    block[...] = ref.transpose(0, 2, 1)


def _driver_major_paths(model, grid, n_paths, seed, drift_shift):
    """The reference (n_drivers, n_times, n_paths) paths, :func:`_driver_major_chunk` chunk by chunk."""
    drift, vol, x0 = _step_coefficients(model, grid, drift_shift or {})
    paths = np.empty((len(x0), len(grid.times), n_paths))
    for chunk, cols in enumerate(chunk_columns(n_paths)):
        _driver_major_chunk(paths[:, :, cols], seed, drift, vol, x0, chunk)
    return paths


def _chunk_levels(seed, drift, vol, x0, chunk, count):
    """Every driver's levels over one chunk of ``count`` paths, gathered from the tiles of :func:`_level_tiles`."""
    rows = np.arange(len(x0))
    levels = np.empty((len(x0), drift.shape[1] + 1, count))
    ring = np.empty(math.prod(_ring_shape(vol, rows, count)))
    for nodes, tile in _level_tiles(seed, drift, vol, x0, chunk, rows, count, ring):
        levels[:, nodes] = tile
    return levels


def _uncorrelated_model():
    """Three drivers with identity correlation: a mixing matrix of zeros off the diagonal."""
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.02, 0.02)}
    assets = [
        AssetSpec("A", "EUR", 10.0, 0.2, RateCurve.flat(0.01), RateCurve.flat(0.015)),
        AssetSpec("B", "USD", 5.0, 0.3, RateCurve.flat(0.0), RateCurve.flat(0.025)),
    ]
    return build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.1)])


def _factors_read(model, labels):
    """The factors a pass over the drivers ``labels`` draws: up to the last one any of them reads."""
    rows = [model.driver_labels.index(label) for label in labels]
    return max((int(np.flatnonzero(model.mixing[d])[-1]) + 1 for d in rows), default=0)


LAYOUT_CASES = {
    "one driver": ("single_currency_model", 1000, 6, None),
    "zero mixing entries": (None, 1000, 6, None),
    "ragged chunks": ("three_currency_model", 2 * CHUNK_PATHS + 123, 3, None),
    "odd ragged last chunk": ("two_currency_model", CHUNK_PATHS + 777, 5, {"EQ": 0.01}),
    "steps exceed chunk paths": ("two_currency_model", 60, 300, None),
    "drift shift": ("two_currency_model", 1000, 6, {"fx:USD": 0.02, "EQ": -0.01}),
    # a last chunk of one pair on one step, whose dot products the kernel sums in Python (their
    # summation order is pinned over many streams by test_one_pair_tiles_sum_the_mixing_in_driver_order)
    "one-pair one-step tile": ("three_currency_model", CHUNK_PATHS + 2, 1, None),
}


def _step_bytes(model, labels, n_paths):
    """A kernel step's bytes for the drivers ``labels``: the normals of the factors they read and one mixed row."""
    return (_factors_read(model, labels) + 1) * 8 * -(-min(n_paths, CHUNK_PATHS) // 2)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("case", list(LAYOUT_CASES))
def test_time_major_kernel_matches_driver_major_reference(request, monkeypatch, case, n_workers):
    fixture, n_paths, n_steps, drift_shift = LAYOUT_CASES[case]
    model = _uncorrelated_model() if fixture is None else request.getfixturevalue(fixture)
    if fixture is None:
        assert (model.mixing == 0).any()
    grid = TimeGrid.regular(1.0, n_steps)
    ref = _driver_major_paths(model, grid, n_paths, 17, drift_shift)
    # the tile budget of the kernel's mixing loop: one step per tile, three steps of a full chunk's
    # rows, and at least the whole chunk
    step_bytes = _step_bytes(model, model.driver_labels, n_paths)
    for budget in (1, 3 * step_bytes, n_steps * step_bytes):
        monkeypatch.setattr("xccy.simulation.TILE_BYTES", budget)
        scen = simulate(model, grid, n_paths, seed=17, drift_shift=drift_shift, n_workers=n_workers)
        for d, label in enumerate(model.driver_labels):
            assert scen.driver(label).T.tobytes() == ref[d].tobytes(), (label, budget)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("case", list(LAYOUT_CASES))
def test_each_driver_streamed_alone_matches_the_driver_major_reference(request, monkeypatch, case, n_workers):
    # a pass draws only the factors its drivers read, so a driver's bits do not depend on which
    # drivers are streamed with it
    fixture, n_paths, n_steps, drift_shift = LAYOUT_CASES[case]
    model = _uncorrelated_model() if fixture is None else request.getfixturevalue(fixture)
    grid = TimeGrid.regular(1.0, n_steps)
    labels = model.driver_labels
    ref = _driver_major_paths(model, grid, n_paths, 17, drift_shift)

    def gather(names):
        def work(cols, tiles):
            levels = np.empty((len(names), len(grid.times), cols.stop - cols.start))
            for nodes, tile in tiles:
                for i, label in enumerate(names):
                    levels[i, nodes] = tile[label]
            return cols, levels

        return work

    # each driver alone, and the first and last together (two runs of rows), at the tile budgets
    # of the test above for the factors the pass reads
    passes = [(label,) for label in labels] + ([(labels[0], labels[-1])] if len(labels) > 2 else [])
    for names in passes:
        step_bytes = _step_bytes(model, names, n_paths)
        for budget in (1, 3 * step_bytes, n_steps * step_bytes):
            monkeypatch.setattr("xccy.simulation.TILE_BYTES", budget)
            scen = simulate(model, grid, n_paths, seed=17, drift_shift=drift_shift, n_workers=n_workers)
            for cols, levels in scen.map_tiles(gather(names), *names):
                for i, label in enumerate(names):
                    assert levels[i].tobytes() == ref[labels.index(label), :, cols].tobytes(), (names, budget)
            assert scen._store is None


@pytest.mark.parametrize("count", [1, 2])
def test_one_pair_tiles_sum_the_mixing_in_driver_order(three_currency_model, count):
    # einsum sums a one-element output, the dot product of a one-pair, one-step tile, in another
    # order, which moves the paths of about half of these streams in their last bit
    grid = TimeGrid.regular(1.0, 1)
    drift, vol, x0 = _step_coefficients(three_currency_model, grid, {})
    shape = (len(x0), len(grid.times), count)
    for chunk in range(16):
        ref = np.empty(shape)
        _driver_major_chunk(ref, 17, drift, vol, x0, chunk)
        assert _chunk_levels(17, drift, vol, x0, chunk, count).tobytes() == ref.tobytes(), chunk


@pytest.mark.parametrize("count", [1000, 1001])  # 1001: the last path has no antithetic twin
def test_level_step_is_x0_times_exp_of_the_log_kernel(three_currency_model, count):
    grid = TimeGrid.regular(1.0, 7)
    drift, vol, x0 = _step_coefficients(three_currency_model, grid, {})
    shape = (len(x0), len(grid.times), count)
    logs = np.empty(shape)
    levels = _chunk_levels(3, drift, vol, x0, 2, count)
    _simulate_log_chunk(logs, 3, drift, vol, 2, np.arange(len(x0)))
    assert np.array_equal(logs[:, 0], np.zeros(shape[::2]))
    assert levels.tobytes() == (np.exp(logs) * x0[:, None, None]).tobytes()


def test_every_time_slice_is_a_contiguous_view_of_one_buffer(three_currency_model):
    n_paths, grid = 1000, TimeGrid.regular(1.0, 5)
    scen = simulate(three_currency_model, grid, n_paths, seed=1)
    labels = three_currency_model.driver_labels
    base = scen.driver(labels[0]).base
    assert base.nbytes == len(labels) * len(grid.times) * n_paths * 8
    for label in labels:
        series = scen.driver(label)
        assert series.shape == (n_paths, len(grid.times))
        assert series.base is base
        for j in range(len(grid.times)):
            assert series[:, j].flags.c_contiguous


def test_scenario_is_one_path_array_with_accounts_from_the_curves(multi_knot_model):
    repo = RateCurve([0.0, 0.4, 1.1], [0.01, 0.03, -0.005])
    model = _with_foreign_asset(multi_knot_model, 0.3, 0.2, repo, RateCurve.flat(0.0))
    grid = TimeGrid.regular(2.0, 7, include=[0.4])
    scen = simulate(model, grid, 300, seed=2)
    fields = ["model", "grid", "seed", "paths", "measure_tag", "_simulation"]
    assert [f.name for f in dataclasses.fields(scen)] == fields
    assert scen.paths.shape == (len(model.driver_labels), len(grid.times), 300) and scen.n_paths == 300
    for d, label in enumerate(model.driver_labels):
        assert np.shares_memory(scen.driver(label), scen.paths)
        assert np.array_equal(scen.driver(label), scen.paths[d].T)
    assert np.shares_memory(scen.asset("F"), scen.paths) and np.shares_memory(scen.fx("USD"), scen.paths)
    # bit for bit the cash accounts of the curves
    assert scen.repo_account("F").tobytes() == cash_account_value(repo, grid.times).tobytes()
    for cur in ("EUR", "USD"):
        expected = cash_account_value(model.curve(cur, "unsecured"), grid.times)
        assert scen.account(cur).tobytes() == expected.tobytes()
    chunk = dataclasses.replace(scen, paths=scen.paths[:, :, 100:200])
    assert chunk.n_paths == 100 and np.array_equal(chunk.fx("USD"), scen.fx("USD")[100:200])
    with pytest.raises(ConfigError):
        scen.repo_account("NOPE")
    with pytest.raises(ConfigError):
        scen.asset("fx:USD")
    for lookup in (scen.account, scen.fx):
        with pytest.raises(UnknownCurrency):
            lookup("GBP")


def test_same_seed_reproduces_same_paths(two_currency_model):
    grid = TimeGrid.regular(1.0, 6)
    a = simulate(two_currency_model, grid, 64, seed=11)
    b = simulate(two_currency_model, grid, 64, seed=11)
    c = simulate(two_currency_model, grid, 64, seed=12)
    assert np.array_equal(a.asset("EQ"), b.asset("EQ"))
    assert not np.array_equal(a.asset("EQ"), c.asset("EQ"))


def test_zero_paths_rejected(two_currency_model):
    with pytest.raises(ZeroPaths):
        simulate(two_currency_model, TimeGrid.regular(1.0, 2), 0, seed=0)


@pytest.mark.parametrize("n_workers", [0, -3])
def test_nonpositive_workers_rejected(two_currency_model, n_workers):
    with pytest.raises(ConfigError):
        simulate(two_currency_model, TimeGrid.regular(1.0, 2), 10, seed=0, n_workers=n_workers)
    with pytest.raises(ConfigError):
        BsdeConfig(grid=TimeGrid.regular(1.0, 2), n_paths=10, n_workers=n_workers)


def test_thread_count_capped_by_cpus_and_chunks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_threads(100_000, 13) == 4
    assert worker_threads(2, 13) == 2
    assert worker_threads(8, 3) == 3
    assert worker_threads(1, 13) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable: one thread
    assert worker_threads(8, 13) == 1


def test_chunk_schedule_strides_the_chunks_over_the_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert chunk_columns(2 * CHUNK_PATHS + 5) == [
        slice(0, CHUNK_PATHS), slice(CHUNK_PATHS, 2 * CHUNK_PATHS), slice(2 * CHUNK_PATHS, 2 * CHUNK_PATHS + 5)
    ]
    shares = []
    run_chunks(shares.append, range(1, 8), 3)  # thread i takes chunks[i::3], each share in order
    assert sorted(shares) == [[1, 4, 7], [2, 5], [3, 6]]
    shares.clear()
    run_chunks(shares.append, range(1, 1), 3)  # no chunk: one call on the caller's thread
    assert shares == [[]]
    with pytest.raises(ConfigError):
        run_chunks(shares.append, range(4), 0)


@pytest.mark.parametrize("n_pairs", [50, CHUNK_PATHS + 500], ids=["one chunk", "three chunks"])
def test_antithetic_pairs_have_no_error_bar_spread(n_pairs):
    # c + a and c - a in dyadic steps: every pair mean is exactly c, so the SE is 0; over
    # several chunks (the last ragged) every chunk mean is c and the fold adds nothing,
    # which the rounding floor of a zero-volatility FX pair relies on
    a = np.random.default_rng(0).integers(-1000, 1000, (3, n_pairs)) / 64.0
    c = np.array([[3.0], [-0.5], [0.0]])
    samples = np.stack([c + a, c - a], axis=-1).reshape(3, 2 * n_pairs)
    mean, se = sample_mean(samples)
    assert np.array_equal(mean, c[:, 0]) and np.array_equal(se, np.zeros(3))


def test_chunk_fold_matches_the_two_pass_statistics():
    # a large offset over a small spread: a naive sum of squares would lose every digit
    samples = 1e6 + np.random.default_rng(2).standard_normal(3 * CHUNK_PATHS + 1000)
    pairs = 0.5 * (samples[0::2] + samples[1::2])
    mean, se = sample_mean(samples)
    assert mean == pytest.approx(np.mean(pairs), rel=1e-12, abs=0.0)
    assert se == pytest.approx(np.std(pairs, ddof=1) / math.sqrt(pairs.size), rel=1e-12, abs=0.0)


def test_pair_moments_take_one_half_row_temporary_and_the_bits_of_the_pair_means():
    # a martingale checkpoint block of one chunk: its pair means are 128 KiB, below the 256 KiB above
    # which numpy elides a temporary, so 0.5 * (a + b) would hold two such arrays at once. What else
    # may be held is the ufunc iterator's 64 KiB buffer for the broadcast mean
    block = 1.0 + np.random.default_rng(3).standard_normal((4, CHUNK_PATHS))
    half = block[..., 0::2].nbytes
    pair_moments(block)  # numpy's one-time allocations, unmeasured
    peak = peak_traced_bytes(lambda: pair_moments(block))
    assert peak < 2 * half, (peak, half)
    pairs = 0.5 * (block[:, 0::2] + block[:, 1::2])
    k, mean, m2 = pair_moments(block)
    assert k == CHUNK_PATHS // 2 and np.array_equal(mean, pairs.mean(axis=-1))
    assert np.array_equal(m2 / (k - 1), pairs.var(axis=-1, ddof=1))


@pytest.mark.parametrize("n_paths", [0, 1, 2, 3, 2001])
def test_error_bar_needs_an_even_count_of_at_least_four_paths(n_paths):
    with pytest.raises(ConfigError, match="even count of at least 4 paths"):
        check_error_bar_paths(n_paths)
    with pytest.raises(ConfigError, match="even count of at least 4 paths"):
        sample_mean(np.ones((2, n_paths)))


def test_mean_of_pair_means_is_the_sample_mean():
    samples = 5.0 + np.random.default_rng(1).standard_normal((4, 1002))
    mean, se = sample_mean(samples)
    np.testing.assert_allclose(mean, samples.mean(axis=-1), rtol=4 * np.finfo(float).eps, atol=0.0)
    pairs = 0.5 * (samples[:, 0::2] + samples[:, 1::2])
    assert np.array_equal(se, pairs.std(axis=-1, ddof=1) / math.sqrt(501))


def test_drift_shift_moves_the_mean(two_currency_model):
    grid = TimeGrid.regular(1.0, 4)
    base = simulate(two_currency_model, grid, 20000, seed=3)
    shifted = simulate(two_currency_model, grid, 20000, seed=3, drift_shift={"fx:USD": 0.02})
    ratio = shifted.fx("USD")[:, -1].mean() / base.fx("USD")[:, -1].mean()
    assert ratio == pytest.approx(math.exp(0.02), rel=1e-12)
    assert shifted.measure_tag == "p"


def test_drift_shift_naming_no_driver_is_rejected(two_currency_model):
    with pytest.raises(ConfigError, match="fx:GBP"):
        simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=3, drift_shift={"fx:GBP": 0.5})


def test_zero_drift_shift_keeps_the_martingale_measure(two_currency_model):
    grid = TimeGrid.regular(1.0, 4)
    base = simulate(two_currency_model, grid, 10, seed=3)
    zero = simulate(two_currency_model, grid, 10, seed=3, drift_shift={"fx:USD": 0.0})
    assert zero.measure_tag == "qe"
    assert np.array_equal(zero.fx("USD"), base.fx("USD"))


# sha256 of every driver's path bytes, in driver order, on TimeGrid.regular(2.0, 16)
# with 300 paths at seed 11; recorded with one numpy SFC64 stream per factor of each
# chunk, a Cholesky mixing factor with the FX pairs first, and antithetic pairs, so
# any change to the drift arithmetic, the factor, the draws, the pairing or the
# stepping shows here. multi_knot_model has one driver, which reads factor 0 alone:
# its digest is the one recorded when a chunk drew one stream for every driver.
# The bytes go through numpy's exp and log, which may round differently on
# another CPU or numpy build.
PATH_DIGESTS = {
    "two_currency_model": (
        "two_currency_model",
        None,
        "8bf7de25f48e09b645bd4f22ca37ba11e990fb961801452ee1a1fd7aea17ba9a",
    ),
    "two_currency_model-drift_shift": (
        "two_currency_model",
        {"fx:USD": 0.02, "EQ": 0.02},
        "37ffe06f0feb10c2168a5a04579fd3b068735f443101ed91a425cc364123adb3",
    ),
    "multi_knot_model": (
        "multi_knot_model",
        None,
        "bd9bf35f4b96e51a5c88c26a4e7dfb2db71bf4723e8d8c2ac7d92e0c70dbefee",
    ),
}


@pytest.mark.parametrize("fixture,drift_shift,digest", list(PATH_DIGESTS.values()), ids=list(PATH_DIGESTS))
def test_paths_known_answer(request, fixture, drift_shift, digest):
    model = request.getfixturevalue(fixture)
    scen = simulate(model, TimeGrid.regular(2.0, 16), 300, seed=11, drift_shift=drift_shift)
    h = hashlib.sha256()
    for label in model.driver_labels:
        h.update(scen.driver(label).tobytes())
    assert h.hexdigest() == digest


def _with_foreign_asset(model, rho, sigma, repo, dividend):
    """``model`` plus an asset F quoted in USD, correlated ``rho`` with fx:USD."""
    assets = [AssetSpec("F", "USD", 10.0, sigma, dividend, repo)]
    corr = CorrelationMatrix(["F", "fx:USD"], [[1.0, rho], [rho, 1.0]])
    currencies = [(c.name, c.domestic) for c in model.currencies]
    return build_model(currencies, dict(model.rates), assets, model.fx, corr)


knotted_curves = st.lists(
    st.tuples(st.floats(0.01, 2.5), st.floats(-0.05, 0.08)), max_size=4, unique_by=lambda kv: kv[0]
).map(lambda kvs: RateCurve([0.0] + sorted(k for k, _ in kvs), [0.01] + [v for _, v in sorted(kvs)]))


@given(
    rho=st.floats(-1.0, 1.0),
    sigma=st.floats(0.01, 0.6),
    repo=knotted_curves,
    dividend=knotted_curves,
    shift=st.sampled_from([0.0, 0.02]),
    inner=st.lists(st.floats(0.001, 2.4), max_size=12),
    on_knots=st.lists(st.sampled_from([0.3, 0.5, 0.75, 1.25]), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_step_drift_is_the_integral_of_the_instantaneous_drift(
    multi_knot_model, rho, sigma, repo, dividend, shift, inner, on_knots
):
    model = _with_foreign_asset(multi_knot_model, rho, sigma, repo, dividend)
    times = np.unique([0.0, 2.5] + inner + on_knots)
    assert np.array_equal(UNIT_RATE.step_integrals(times), np.diff(times))
    curves = [model.curve("EUR", "unsecured"), model.curve("USD", "unsecured"), repo, dividend]
    knots = np.concatenate([c.knots for c in curves])
    # error scale per unit time: the summed magnitudes of the drift's terms
    scale = sum(c.max_abs() for c in curves) + abs(rho * sigma * 0.1) + shift
    for label in ("F", "fx:USD"):
        steps = qe_drift_of(model, label, lambda curve: curve.step_integrals(times), shift)
        for j, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
            edges = np.unique(np.concatenate([[t0, t1], knots[(knots > t0) & (knots < t1)]]))
            ref = math.fsum(
                qe_drift_of(model, label, lambda curve: curve.rate(a), shift) * (b - a)
                for a, b in zip(edges[:-1], edges[1:])
            )
            assert abs(steps[j] - ref) <= 1e-14 * scale * (t1 - t0)


@pytest.mark.parametrize("row_bytes", [0, 1, 8, 4000, TILE_BYTES - 1, TILE_BYTES, TILE_BYTES + 1, 3 * TILE_BYTES])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 65, 262, 263, 2000])
def test_row_tiles_cover_the_rows_once_in_non_empty_tiles(n_rows, row_bytes):
    tiles = row_tiles(n_rows, row_bytes)
    assert [i for t in tiles for i in range(n_rows)[t]] == list(range(n_rows))
    assert all(t.stop > t.start for t in tiles)
    # each tile holds as many whole rows as fit TILE_BYTES, and at least one
    assert all(t.stop - t.start == max(1, TILE_BYTES // max(row_bytes, 1)) for t in tiles[:-1])
