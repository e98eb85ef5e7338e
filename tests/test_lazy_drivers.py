"""A scenario simulates each driver the first time it is read, to the bits of a full simulation."""

import dataclasses
import itertools
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    AssetSpec,
    CollateralPath,
    CollateralSpec,
    Contract,
    CorrelationMatrix,
    FxSpec,
    ScenarioSet,
    Strategy,
    TimeGrid,
    build_exogenous_path,
    martingale_test,
    price_exogenous,
    reduction_suite,
    replay_wealth,
    run_martingale_suite,
    simulate,
)
from xccy.cli import run
from xccy.curves import RateCurve
from xccy.errors import ConfigError, ZeroPaths
from xccy.simulation import CHUNK_PATHS, TILE_BYTES, chunk_columns

N_PASS_PATHS = CHUNK_PATHS + 100  # two chunks: one pass draws the streams of its factors in each
DEMO_MODEL = Path(__file__).resolve().parents[1] / "demos" / "config" / "model.json"


@pytest.fixture
def streams(monkeypatch):
    """The (chunk, factor) streams drawn from, one entry per stream per simulation pass."""
    import xccy.simulation

    drawn = []
    real = xccy.simulation.chunk_stream

    def counting(seed, chunk, factor=0):
        drawn.append((chunk, factor))
        return real(seed, chunk, factor)

    monkeypatch.setattr(xccy.simulation, "chunk_stream", counting)
    return drawn


def _one_pass(n_paths: int, n_factors: int) -> list[tuple[int, int]]:
    """The streams of one pass that reads factors 0 ... n_factors - 1: each chunk's, in chunk order."""
    return [(chunk, k) for chunk in range(len(chunk_columns(n_paths))) for k in range(n_factors)]


# factors each driver reads, in the fixtures' factor order (the FX pairs, then the assets): the
# fixtures' correlations are full rank, so a driver reads every factor up to its own
TWO_CURRENCY_READS = {"fx:USD": 1, "EQ": 2, "FEQ": 3}
THREE_CURRENCY_READS = {"fx:USD": 1, "fx:JPY": 2, "EQ1": 3, "EQ2": 4, "UST": 5, "NKY": 6}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("n_paths", [1, 3, 8199])
def test_every_subset_and_order_of_loads_keeps_the_bits_of_a_full_simulation(
    three_currency_model, n_paths, n_workers
):
    model, grid = three_currency_model, TimeGrid.regular(1.0, 5)
    labels = model.driver_labels
    full = simulate(model, grid, n_paths, seed=23, n_workers=n_workers).paths.copy()
    # subsets of one to all six drivers, runs of consecutive rows and scattered rows alike
    subsets = [("fx:JPY",), ("EQ2", "UST"), ("EQ1", "UST", "fx:JPY"), ("NKY", "EQ1", "fx:USD", "EQ2"), labels]
    for subset in subsets:
        for split in range(len(subset) + 1):  # the subset as one load, or as two in reverse order
            scen = simulate(model, grid, n_paths, seed=23, n_workers=n_workers)
            for part in (subset[split:][::-1], subset[:split]):
                if part:
                    scen.load(*part)
            assert set(scen.simulated_drivers) == set(subset)
            for label in subset:
                d = labels.index(label)
                assert scen.driver(label).T.tobytes() == full[d].tobytes(), (subset, split, label)


def test_a_scenario_simulates_nothing_until_a_driver_is_read(two_currency_model, streams):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), N_PASS_PATHS, seed=1)
    assert streams == [] and scen.simulated_drivers == ()
    assert scen.n_paths == N_PASS_PATHS and scen.grid.n_steps == 4  # read without simulating
    scen.fx("EUR")  # the domestic rate is one: no driver
    assert streams == [] and scen.simulated_drivers == ()
    scen.asset("FEQ")  # the last factor: a pass that reads all three
    assert scen.simulated_drivers == ("FEQ",) and streams == _one_pass(N_PASS_PATHS, 3)
    scen.asset("FEQ")
    scen.load("FEQ")
    assert streams == _one_pass(N_PASS_PATHS, 3)  # a simulated driver is not simulated again
    _ = scen.paths  # the whole array: every driver first, so EQ and fx:USD, which read two factors
    assert scen.simulated_drivers == ("EQ", "FEQ", "fx:USD")
    assert streams == _one_pass(N_PASS_PATHS, 3) + _one_pass(N_PASS_PATHS, 2)


def test_a_scenario_built_from_a_whole_array_counts_as_simulated(two_currency_model, streams):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 200, seed=1)
    chunk = dataclasses.replace(scen, paths=scen.paths[:, :, 100:150])
    assert chunk.simulated_drivers == two_currency_model.driver_labels and chunk.n_paths == 50
    assert streams == _one_pass(200, 3)  # the one pass that read scen.paths
    assert np.shares_memory(chunk.fx("USD"), scen.paths)


def test_load_rejects_a_label_that_names_no_driver(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 10, seed=1)
    for label in ("GBP", "fx:GBP", "fx:EUR"):
        with pytest.raises(ConfigError):
            scen.load("EQ", label)
    assert scen.simulated_drivers == ()


def test_simulate_checks_its_inputs_at_once(two_currency_model, streams):
    grid = TimeGrid.regular(1.0, 4)
    with pytest.raises(ZeroPaths):
        simulate(two_currency_model, grid, 0, seed=1)
    with pytest.raises(ConfigError, match="drift_shift names no driver"):
        simulate(two_currency_model, grid, 10, seed=1, drift_shift={"fx:GBP": 0.5})
    with pytest.raises(ConfigError, match="n_workers"):
        simulate(two_currency_model, grid, 10, seed=1, n_workers=0)
    assert streams == []


def test_concurrent_readers_simulate_each_driver_once(two_currency_model, streams):
    # more readers than cores, switching often: each driver is still simulated once, to its bits
    grid, labels = TimeGrid.regular(1.0, 4), two_currency_model.driver_labels
    full = simulate(two_currency_model, grid, N_PASS_PATHS, seed=1).paths.copy()
    streams.clear()
    scen = simulate(two_currency_model, grid, N_PASS_PATHS, seed=1, n_workers=2)
    barrier = threading.Barrier(8)
    seen = {}

    def read(i):
        barrier.wait()
        label = labels[i % len(labels)]
        seen[i] = scen.driver(label).T.tobytes() == full[labels.index(label)].tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {i: True for i in range(8)}
    assert scen.simulated_drivers == labels
    # one pass per driver, each of the factors it reads
    expected = [stream for label in labels for stream in _one_pass(N_PASS_PATHS, TWO_CURRENCY_READS[label])]
    assert sorted(streams) == sorted(expected)


def test_concurrent_streams_and_loads_give_the_bits_of_a_stored_scenario(three_currency_model):
    # streamed tests and driver loads on one scenario at once: a test reads its tiles from the kernel's ring or
    # from the store, depending on what is loaded when it starts, and reports the same bytes either way
    grid, labels = TimeGrid.regular(1.0, 4), three_currency_model.driver_labels
    stored = simulate(three_currency_model, grid, N_PASS_PATHS, seed=2)
    stored.load()
    process_ids = ["asset:EQ1", "asset:UST", "fx:USD", "fx:JPY"]
    expected = {pid: martingale_test(stored, pid) for pid in process_ids}
    scen = simulate(three_currency_model, grid, N_PASS_PATHS, seed=2, n_workers=2)
    barrier = threading.Barrier(8)
    seen = {}

    def read(i):
        barrier.wait()
        if i % 2:
            label = labels[i % len(labels)]
            seen[i] = scen.driver(label).T.tobytes() == stored.paths[labels.index(label)].tobytes()
        else:
            pid = process_ids[i // 2]
            seen[i] = martingale_test(scen, pid) == expected[pid]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {i: True for i in range(8)}


MARK_PROXY = CollateralSpec(currency="USD", mode=("exogenous", "mark_proxy", {}))


def test_a_price_simulates_only_the_drivers_its_trade_reads(two_currency_model, streams):
    # EQ and FEQ are never read: a contract paid in EUR or in USD and collateralized in USD reads
    # fx:USD alone, which reads factor 0 alone, in one streamed pass that stores nothing
    grid = TimeGrid.regular(1.0, 4)
    for native in ("EUR", "USD"):
        streams.clear()
        scen = simulate(two_currency_model, grid, N_PASS_PATHS, seed=3)
        contract = Contract(native, ((1.0, -1.0),))
        report = price_exogenous(scen, contract, build_exogenous_path(scen, MARK_PROXY, contract), MARK_PROXY)
        assert scen.simulated_drivers == ()
        assert streams == _one_pass(N_PASS_PATHS, 1)
        full = simulate(two_currency_model, grid, N_PASS_PATHS, seed=3)
        full.load(*two_currency_model.driver_labels)
        expected = price_exogenous(full, contract, build_exogenous_path(full, MARK_PROXY, contract), MARK_PROXY)
        assert report == expected, native


def test_an_asset_perfectly_correlated_with_its_fx_rate_reads_the_fx_factor_alone(streams):
    # rho = 1: the asset's pivot is zero, so its factor column is zero and its shocks are the FX rate's
    rates = {"EUR": curveset(0.02, 0.01, 0.01), "USD": curveset(0.03, 0.02, 0.02)}
    assets = [AssetSpec("F", "USD", 10.0, 0.2, RateCurve.flat(0.0), RateCurve.flat(0.01))]
    correlation = CorrelationMatrix(["F", "fx:USD"], [[1.0, 1.0], [1.0, 1.0]])
    model = build_model([("EUR", True), ("USD", False)], rates, assets, [FxSpec("USD", 0.9, 0.1)], correlation)
    np.testing.assert_allclose(model.mixing @ model.mixing.T, model.correlation.matrix, atol=1e-10)
    assert model.mixing.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    scen = simulate(model, TimeGrid.regular(1.0, 4), N_PASS_PATHS, seed=2)
    scen.load()
    assert streams == _one_pass(N_PASS_PATHS, 1)
    # each log-increment is its drift plus sigma sqrt(dt) times the one shock, and the antithetic
    # pairs cancel in the mean over paths, which leaves the drift
    shocks = [np.diff(np.log(scen.driver(label)), axis=1) for label in ("F", "fx:USD")]
    shocks = [(x - x.mean(axis=0)) / sigma for x, sigma in zip(shocks, (0.2, 0.1))]
    np.testing.assert_allclose(shocks[0], shocks[1], rtol=0, atol=1e-12)


def test_a_price_reading_several_drivers_simulates_them_in_one_pass(three_currency_model, streams):
    # a JPY flow collateralized in USD by a fraction of the JPY asset NKY: NKY, fx:USD and fx:JPY
    spec = CollateralSpec(currency="USD", mode=("exogenous", "fraction_of_asset", {"asset": "NKY", "fraction": 1e-4}))
    contract = Contract("JPY", ((1.0, -100.0),))
    scen = simulate(three_currency_model, TimeGrid.regular(1.0, 4), N_PASS_PATHS, seed=3)
    price_exogenous(scen, contract, build_exogenous_path(scen, spec, contract), spec)
    assert scen.simulated_drivers == ()  # streamed, stored nowhere
    assert streams == _one_pass(N_PASS_PATHS, THREE_CURRENCY_READS["NKY"])  # NKY, the last factor: all six


def test_the_suite_and_a_test_make_one_pass_each(three_currency_model, streams):
    grid = TimeGrid.regular(1.0, 4)
    run_martingale_suite(simulate(three_currency_model, grid, N_PASS_PATHS, seed=3))
    assert streams == _one_pass(N_PASS_PATHS, 6)  # every driver: all six factors
    for pid, label in (("asset:UST", "UST"), ("asset:EQ1", "EQ1"), ("fx:USD", "fx:USD")):
        streams.clear()
        scen = simulate(three_currency_model, grid, N_PASS_PATHS, seed=3)
        martingale_test(scen, pid)  # streamed: a streamed reader stores nothing
        assert scen.simulated_drivers == () and streams == _one_pass(N_PASS_PATHS, THREE_CURRENCY_READS[label])


def test_a_stored_scenario_is_streamed_without_drawing_and_a_lazy_one_in_one_pass(three_currency_model, streams):
    grid = TimeGrid.regular(1.0, 4)
    stored = simulate(three_currency_model, grid, N_PASS_PATHS, seed=3)
    stored.load()
    streams.clear()
    run_martingale_suite(stored)
    martingale_test(stored, "asset:UST")
    assert streams == []  # read from the store
    for read, n_factors in ((run_martingale_suite, 6), (lambda scen: martingale_test(scen, "fx:JPY"), 2)):
        lazy = simulate(three_currency_model, grid, N_PASS_PATHS, seed=3, n_workers=2)
        read(lazy)
        assert sorted(streams) == _one_pass(N_PASS_PATHS, n_factors) and lazy.simulated_drivers == ()
        streams.clear()


def test_a_streamed_suite_takes_memory_of_a_few_chunks_whatever_the_path_count(three_currency_model):
    # simulation included: the scenario is built and simulated inside the measurement, and keeps no paths
    grid = TimeGrid.regular(1.0, 4)
    run_martingale_suite(simulate(three_currency_model, grid, 4, seed=4))  # numpy's one-time imports, unmeasured
    peaks = []
    for n_paths in (2 * CHUNK_PATHS, 16 * CHUNK_PATHS):
        tracemalloc.start()
        try:
            run_martingale_suite(simulate(three_currency_model, grid, n_paths, seed=4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one driver's paths over the 14 extra chunks alone would be 14 * CHUNK_PATHS * 5 * 8 bytes
    assert abs(peaks[1] - peaks[0]) <= 4 * CHUNK_PATHS * 8, peaks


def test_a_streamed_suite_and_terminal_means_take_memory_of_a_few_tiles_whatever_the_step_count(
    three_currency_model, capsys
):
    # simulation included, as above; one chunk's paths of one driver would grow by 396 * CHUNK_PATHS * 8 bytes,
    # 26 MB, from 4 to 400 steps. What may grow is bounded: the ring and the normals up to their TILE_BYTES (a
    # tile of the demo's three drivers holds 8 steps), the rows of every process at once when a chunk has several
    # tiles (one at a time with one tile), and the step coefficients
    def suite(n_steps):
        run_martingale_suite(simulate(three_currency_model, TimeGrid.regular(1.0, n_steps), 2 * CHUNK_PATHS, seed=4))

    def terminal_means(n_steps):
        args = ["--model", str(DEMO_MODEL), "--paths", str(2 * CHUNK_PATHS), "--steps", str(n_steps)]
        assert run(["simulate", *args]) == 0

    for read in (suite, terminal_means):
        read(4)  # numpy's one-time imports, unmeasured
        peaks = []
        for n_steps in (4, 400):
            tracemalloc.start()
            try:
                read(n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4 * TILE_BYTES, (read.__name__, peaks)
    capsys.readouterr()  # the simulate reports


def test_a_wealth_replay_makes_one_pass(two_currency_model, streams):
    grid = TimeGrid.regular(1.0, 4)
    scen = simulate(two_currency_model, grid, N_PASS_PATHS, seed=3)
    strategy = Strategy({"EQ": np.ones(4), "FEQ": np.ones(4)}, {"FEQ": -np.ones(4)}, {"USD": np.ones(4)})
    replay_wealth(scen, strategy, Contract("USD", ((1.0, -1.0),)))
    assert streams == _one_pass(N_PASS_PATHS, 3)
    streams.clear()
    scen = simulate(two_currency_model, grid, N_PASS_PATHS, seed=3)
    strategy = Strategy.repo_constrained(scen, {"FEQ": np.ones(4)})  # built to be replayed: one pass for both
    replay_wealth(scen, strategy, Contract.zero("EUR"))
    assert streams == _one_pass(N_PASS_PATHS, 3)


def test_cli_simulate_makes_one_pass(tmp_path, streams):
    args = ["--model", str(DEMO_MODEL), "--paths", str(N_PASS_PATHS), "--steps", "3"]
    assert run(["simulate", *args, "--out", str(tmp_path / "out"), "--dump-paths"]) == 0
    assert streams == _one_pass(N_PASS_PATHS, 3)


def test_cli_simulate_without_a_dump_never_allocates_the_path_store(tmp_path, streams, monkeypatch):
    # the terminal statistics are taken chunk by chunk; loading the store is what the dump alone needs
    loads, load = [], ScenarioSet.load

    def spy(scenario, *labels):
        loads.append(labels)
        return load(scenario, *labels)

    monkeypatch.setattr(ScenarioSet, "load", spy)
    args = ["--model", str(DEMO_MODEL), "--paths", str(N_PASS_PATHS), "--steps", "3"]
    assert run(["simulate", *args, "--out", str(tmp_path / "out")]) == 0
    assert loads == []
    assert streams == _one_pass(N_PASS_PATHS, 3)


def test_every_load_order_keeps_the_bits_of_a_full_simulation(two_currency_model):
    # one driver at a time in each order, over a full and a ragged odd chunk, at one worker and two
    grid = TimeGrid.regular(1.0, 3)
    labels = two_currency_model.driver_labels
    full = simulate(two_currency_model, grid, 3 * CHUNK_PATHS // 2 + 1, seed=9).paths.copy()
    for order, n_workers in itertools.product(itertools.permutations(labels), (1, 2)):
        scen = simulate(two_currency_model, grid, full.shape[2], seed=9, n_workers=n_workers)
        for label in order:
            assert scen.driver(label).T.tobytes() == full[labels.index(label)].tobytes(), (order, label)


@pytest.mark.parametrize("process_id", ["fx:EUR", "fx:USD", "asset:EQ"])
def test_a_martingale_test_without_an_error_bar_simulates_nothing(two_currency_model, streams, process_id):
    # three paths are one pair and a half: the test used to load its drivers before rejecting them
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 3, seed=1)
    with pytest.raises(ConfigError, match="error bar"):
        martingale_test(scen, process_id)
    assert streams == [] and scen.simulated_drivers == ()


def test_a_price_without_an_error_bar_simulates_nothing(two_currency_model, streams):
    # a collateral path built without reading the scenario: the price used to load fx:USD and sum both legs first
    grid = TimeGrid.regular(1.0, 4)
    scen = simulate(two_currency_model, grid, 3, seed=1)
    spec = CollateralSpec(currency="USD", mode=("exogenous", "constant", {"level": 1.0}))
    coll_path = CollateralPath(np.ones((3, len(grid.times))), "USD")
    with pytest.raises(ConfigError, match="error bar"):
        price_exogenous(scen, Contract("EUR", ((1.0, -1.0),)), coll_path, spec)
    assert streams == [] and scen.simulated_drivers == ()


def test_a_reduction_suite_without_an_error_bar_simulates_nothing(single_currency_model, streams):
    with pytest.raises(ConfigError, match="error bar"):
        reduction_suite(single_currency_model, n_paths=3)
    assert streams == []
