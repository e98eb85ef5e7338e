"""The exogenous price in one pass over the chunks, read in time tiles: the bits of a stored scenario and a
built collateral path, and memory of a few tiles whatever the path and step counts."""

import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import build_model, curveset
from xccy import (
    CollateralPath,
    CollateralSpec,
    Contract,
    FxSpec,
    TimeGrid,
    build_exogenous_path,
    discounted_flows,
    price_exogenous,
    simulate,
)
from xccy.collateral import priced_drivers
from xccy.errors import ConfigError, NonPositiveFx, NumericalError
from xccy.pricing import _add_collateral_legs, _discounted_collateral_legs
from xccy.simulation import CHUNK_PATHS, TILE_BYTES, _kernel_tiles, _step_coefficients, row_tiles, sample_mean

PARAMS = {"constant": {"level": 0.7}, "fraction_of_asset": {"asset": "FEQ", "fraction": 0.02}, "mark_proxy": {}}


def _spec(functional, k3, deltas=(0.3, 0.1)):
    mode = ("exogenous", functional, PARAMS[functional])
    return CollateralSpec(currency=k3, delta1=deltas[0], delta2=deltas[1], mode=mode)


def _streamed_and_stored(model, grid, n_paths, contract, spec, n_workers):
    """The price of a lazy path on a fresh scenario, and of its built array on the same scenario fully loaded."""
    lazy = simulate(model, grid, n_paths, seed=17, n_workers=n_workers)
    streamed = price_exogenous(lazy, contract, build_exogenous_path(lazy, spec, contract), spec)
    assert lazy._store is None
    stored = simulate(model, grid, n_paths, seed=17, n_workers=n_workers)
    stored.load()
    coll = CollateralPath(build_exogenous_path(stored, spec, contract).c, spec.currency)
    return streamed, price_exogenous(stored, contract, coll, spec), stored, coll


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("n_paths", [500, 20_000])  # one chunk; three, the last ragged
@pytest.mark.parametrize("k3", ["EUR", "USD"])
@pytest.mark.parametrize("functional", sorted(PARAMS))
def test_the_streamed_price_is_the_stored_price_bit_for_bit(two_currency_model, functional, k3, n_paths, n_workers):
    contract = Contract("USD", ((0.5, 1.0), (1.0, -1.5)))
    grid = TimeGrid.regular(1.0, 10, include=contract.flow_times)
    spec = _spec(functional, k3)
    streamed, stored, scen, coll = _streamed_and_stored(two_currency_model, grid, n_paths, contract, spec, n_workers)
    assert streamed == stored
    # against the whole arrays: the error bar bit for bit, the leg means so with one chunk and to their
    # last bits over several, where chunked means are not np.mean's pairwise sum
    flows, legs = discounted_flows(scen, contract), _discounted_collateral_legs(scen, coll, spec)
    assert stored.std_error == float(sample_mean(flows + legs)[1])
    whole = (-float(np.mean(flows)), -float(np.mean(legs)))
    if n_paths <= CHUNK_PATHS:
        assert (stored.leg_contractual, stored.leg_collateral) == whole
    else:
        np.testing.assert_allclose((stored.leg_contractual, stored.leg_collateral), whole, rtol=4e-16, atol=0)


def test_three_drivers_of_three_currencies_and_either_worker_count_give_one_report(three_currency_model):
    # a JPY flow collateralized in USD by a fraction of the JPY asset NKY: NKY reads all six factors and
    # the FX rates one and two, all written into one ring; three chunks over one thread or two
    spec = CollateralSpec(currency="USD", delta1=0.3, delta2=0.1,
                          mode=("exogenous", "fraction_of_asset", {"asset": "NKY", "fraction": 1e-4}))
    contract = Contract("JPY", ((0.5, 50.0), (1.0, -100.0)))
    grid = TimeGrid.regular(1.0, 12, include=contract.flow_times)
    reports = [
        report
        for n_workers in (1, 2)
        for report in _streamed_and_stored(three_currency_model, grid, 20_000, contract, spec, n_workers)[:2]
    ]
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("k3", ["EUR", "USD"])
@pytest.mark.parametrize("functional", sorted(PARAMS))
def test_flows_on_and_next_to_tile_edges_of_a_long_grid(two_currency_model, functional, k3):
    # 500 paths on 2000 steps: a flow sits on, before and after the first edge of the kernel's tiles
    # of the lazy scenario and of the store's tiles of the loaded one, which differ where the drivers
    # read more than one factor
    n_paths, n_steps, model = 500, 2000, two_currency_model
    spec, times = _spec(functional, k3), TimeGrid.regular(1.0, n_steps).times
    rows = [model.driver_labels.index(label) for label in priced_drivers(model, spec, Contract("USD", ()))]
    vol = _step_coefficients(model, TimeGrid.regular(1.0, n_steps), {})[1][sorted(rows)]
    edges = {_kernel_tiles(vol, n_paths)[1][1].start, row_tiles(n_steps, 8 * n_paths)[1].start}
    assert len(edges) == (2 if functional == "fraction_of_asset" else 1)
    nodes = sorted({node + offset for node in edges for offset in (-1, 0, 1)} | {n_steps})
    contract = Contract("USD", tuple((float(times[j]), 0.1 * (j % 7) - 0.25) for j in nodes))
    grid = TimeGrid.regular(1.0, n_steps, include=contract.flow_times)
    assert grid.n_steps == n_steps
    streamed, stored, scen, coll = _streamed_and_stored(model, grid, n_paths, contract, spec, 1)
    assert streamed == stored
    assert stored.leg_contractual == -float(np.mean(discounted_flows(scen, contract)))
    assert stored.leg_collateral == -float(np.mean(_discounted_collateral_legs(scen, coll, spec)))


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_lazy_price_holds_a_few_tiles_whatever_the_path_and_step_counts(two_currency_model):
    # simulation included: the scenario and the path are built inside the measurement and store nothing
    spec = _spec("mark_proxy", "USD")
    contract = Contract("USD", ((0.5, 1.0), (1.0, -1.5)))

    def price(n_paths, n_steps):
        grid = TimeGrid.regular(1.0, n_steps, include=contract.flow_times)
        scen = simulate(two_currency_model, grid, n_paths, seed=4)
        price_exogenous(scen, contract, build_exogenous_path(scen, spec, contract), spec)

    price(4, 2)  # numpy's one-time imports, unmeasured
    sizes = ((2 * CHUNK_PATHS, 50), (2 * CHUNK_PATHS, 2000), (6 * CHUNK_PATHS, 50))
    peaks = {size: _peak(lambda: price(*size)) for size in sizes}
    # a chunk's ring, normals and reader temporaries, under five tiles, and the step coefficients: the legs
    # may overwrite the tile's collateral, which is freed before the next tile is drawn; one path array of the
    # smallest of these would be 2 * CHUNK_PATHS * 51 * 8 bytes, 6.7 MB
    for (n_paths, n_steps), peak in peaks.items():
        assert peak <= 5 * TILE_BYTES + 256 * n_steps, peaks


@pytest.mark.parametrize("foreign", [False, True], ids=["domestic", "foreign"])
@pytest.mark.parametrize("one_weight", [True, False], ids=["one-weight", "where"])
def test_owned_collateral_gives_the_legs_of_a_copy_bit_for_bit(one_weight, foreign):
    # the legs may overwrite an owned c and leave a caller's c as it was: the same bits either way, special
    # values too
    rng = np.random.default_rng(11)
    n_times, steps, n_paths = 12, slice(3, 10), 40
    c = rng.normal(size=(steps.stop - steps.start, n_paths))
    c[2, :9] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e-300, -1e-300]
    w_recv, w_post, w_fx = rng.uniform(-0.01, 0.02, size=(3, n_times - 1))
    weights = (w_recv, None if one_weight else w_post, w_fx if foreign else None)
    x = rng.lognormal(size=c.shape) if foreign else None
    b_e = np.exp(np.linspace(0.0, 0.2, n_times))
    start = rng.normal(size=n_paths)
    kept, copied = start.copy(), c.copy()
    _add_collateral_legs(kept, c, x, weights, steps, b_e)
    assert c.tobytes() == copied.tobytes()
    owned = start.copy()
    _add_collateral_legs(owned, copied, x, weights, steps, b_e, owned=True)
    assert owned.tobytes() == kept.tobytes()


@pytest.mark.parametrize("convention", ["rehypothecation", "segregation"])
@pytest.mark.parametrize("k3", ["EUR", "USD"])
def test_the_price_never_writes_a_callers_stored_path(two_currency_model, k3, convention):
    # EUR rehypothecation takes one weight; the others pick theirs by the sign of C
    contract = Contract("USD", ((0.5, 1.0), (1.0, -1.5)))
    spec = dataclasses.replace(_spec("mark_proxy", k3), convention=convention)
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 10, include=contract.flow_times), 600, seed=5)
    lazy = build_exogenous_path(scen, spec, contract)
    stored = CollateralPath(lazy.c, k3)
    kept = stored.c.copy()
    report = price_exogenous(scen, contract, stored, spec)
    assert stored.c.tobytes() == kept.tobytes()
    # a lazy path whose c was read is priced from that array, which is the caller's too
    assert price_exogenous(scen, contract, lazy, spec) == report
    assert lazy.c.tobytes() == kept.tobytes()


def test_a_non_positive_fx_level_in_the_pass_keeps_its_message(two_currency_model):
    # an FX rate starting at the least subnormal, 5e-324, underflows to 0 on the paths that fall by half:
    # the haircut of a USD mark divides by it
    model = build_model(
        [("EUR", True), ("USD", False)],
        {"EUR": curveset(0.02, 0.015, 0.015, cash_post=0.02), "USD": curveset(0.03, 0.022, 0.022, cash_post=0.03)},
        fx=[FxSpec("USD", 5e-324, 0.5)],
    )
    spec = _spec("mark_proxy", "USD")
    contract = Contract("USD", ((1.0, -1.0),))
    for n_workers in (1, 2):
        scen = simulate(model, TimeGrid.regular(1.0, 8), 3 * CHUNK_PATHS, seed=1, n_workers=n_workers)
        with pytest.raises(NonPositiveFx, match="^fx level must be strictly positive$"):
            price_exogenous(scen, contract, build_exogenous_path(scen, spec, contract), spec)
        with pytest.raises(NonPositiveFx, match="^fx level must be strictly positive$"):
            _ = build_exogenous_path(scen, spec, contract).c


def test_the_pass_builds_each_collateral_node_once_and_still_checks_the_horizon(two_currency_model):
    # consecutive tiles share their boundary node: each tile builds its nodes lo .. hi - 1, which the legs read,
    # and the last one the horizon too, so a chunk builds n_times rows over its many tiles
    spec, contract = _spec("mark_proxy", "USD"), Contract("USD", ((0.5, 1.0), (1.0, -1.5)))
    grid = TimeGrid.regular(1.0, 200, include=contract.flow_times)
    for n_workers in (1, 2):
        scen = simulate(two_currency_model, grid, 2 * CHUNK_PATHS + 100, seed=4, n_workers=n_workers)
        path = build_exogenous_path(scen, spec, contract)
        shapes, at = [], path.at
        object.__setattr__(path, "at", lambda rows: shapes.append(rows.shape) or at(rows))
        price_exogenous(scen, contract, path, spec)
        assert len(shapes) == 13 + 13 + 1  # 16-step tiles over each full chunk, one tile over the ragged one
        built = collections.Counter()
        for n_nodes, width in shapes:
            built[width] += n_nodes
        assert built == {CHUNK_PATHS: 2 * len(grid.times), 100: len(grid.times)}
    # the legs read no collateral at the horizon, but an FX level of 0 there still fails the build
    stored = simulate(two_currency_model, grid, 600, seed=4)
    paths = stored.paths.copy()
    paths[two_currency_model.driver_labels.index("fx:USD"), -1, 7] = 0.0
    scen = dataclasses.replace(stored, paths=paths)
    with pytest.raises(NonPositiveFx, match="^fx level must be strictly positive$"):
        price_exogenous(scen, contract, build_exogenous_path(scen, spec, contract), spec)


@pytest.mark.parametrize("k3", ["EUR", "USD"])
def test_an_overflowing_price_over_chunks_and_workers_keeps_its_one_line_failure(two_currency_model, k3):
    # 1.7e308 times a haircut factor of 1.5 is inf on every path, in every chunk, on both threads;
    # pytest makes any numpy warning on the way an error
    contract = Contract("EUR", ((1.0, 1.7e308),))
    spec = CollateralSpec(currency=k3, delta1=0.5, delta2=0.5, mode=("exogenous", "mark_proxy", {}))
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 3 * CHUNK_PATHS, seed=1, n_workers=2)
    with pytest.raises(NumericalError, match=r"^non-finite price: (-?inf|nan) with standard error nan$"):
        price_exogenous(scen, contract, build_exogenous_path(scen, spec, contract), spec)


def test_a_lazy_path_from_another_scenario_is_read_as_its_array(two_currency_model):
    # a path is built on its own scenario; priced on a second one of the same shape, its array is read
    spec = _spec("mark_proxy", "USD")
    contract = Contract("USD", ((1.0, -1.0),))
    grid = TimeGrid.regular(1.0, 6)
    own = simulate(two_currency_model, grid, 600, seed=2)
    other = simulate(two_currency_model, grid, 600, seed=3)
    lazy = build_exogenous_path(own, spec, contract)
    report = price_exogenous(other, contract, lazy, spec)
    assert lazy.built and own._store is not None and other._store is None
    assert report == price_exogenous(other, contract, CollateralPath(lazy.c, "USD"), spec)
    assert report != price_exogenous(other, contract, build_exogenous_path(other, spec, contract), spec)


def test_a_lazy_path_checks_its_inputs_at_once_and_builds_nothing(two_currency_model):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 4), 100, seed=1)
    path = build_exogenous_path(scen, _spec("fraction_of_asset", "USD"), Contract("USD", ((1.0, -1.0),)))
    assert not path.built and path.shape == (100, 5) and scen._store is None
    assert path.drivers == ["FEQ", "fx:USD"]
    assert path.c.shape == (100, 5) and path.built and scen._store is not None
    bad = CollateralSpec(currency="USD", mode=("exogenous", "fraction_of_asset", {"asset": "NOPE"}))
    with pytest.raises(ConfigError, match="NOPE"):
        build_exogenous_path(scen, bad, Contract("USD", ()))
    with pytest.raises(ConfigError, match="GBP"):
        build_exogenous_path(scen, _spec("constant", "USD"), Contract("GBP", ()))
