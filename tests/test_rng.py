import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xccy
from xccy.rng import chunk_stream, normal_block
from xccy.simulation import CHUNK_PATHS, TimeGrid, simulate


def _reference_normals(seed, chunk, factor, shape):
    """Normals of one factor of one chunk read straight from numpy: the ziggurat
    sampler on SFC64 fed by the ``chunk``-th spawned child of the seed reduced
    mod 2**128 for factor 0, and by that child's ``factor``-th child for the others."""
    child = np.random.SeedSequence(seed % 2**128).spawn(chunk + 1)[chunk]
    if factor:
        child = child.spawn(factor + 1)[factor]
    return np.random.Generator(np.random.SFC64(child)).standard_normal(shape)


@pytest.mark.parametrize(
    "seed, chunk, factor, shape",
    [
        (3, 0, 0, (1, 5, 3)),
        (12345, 3, 0, (1, 50, 20)),
        ((0xCAFE << 64) | 0xDEADBEEF | (1 << 130), 1, 0, (4, 4, 4)),
        (-99, 2, 0, (4, 6, 15)),
        (3, 0, 1, (1, 5, 3)),
        (-99, 2, 5, (1, 6, 15)),
    ],
    ids=["chunk_zero", "mid_range", "wide_seed", "six_drivers", "factor_one", "factor_five"],
)
def test_chunk_stream_is_the_spawned_child_of_the_seed(seed, chunk, factor, shape):
    z = normal_block(chunk_stream(seed, chunk, factor), np.empty(shape))
    assert np.array_equal(z, _reference_normals(seed, chunk, factor, shape))


def test_normal_block_known_answer():
    # a change to the seeding, the bit generator or numpy's sampler re-rolls
    # every seeded number; it must show up here, not only in statistical tests.
    # Factor 0 reads the stream a chunk drew for all of its drivers before each
    # factor had its own, so its first 24 normals are the ones recorded then
    z = normal_block(chunk_stream(7, 0), np.empty((4, 3, 2)))
    expected = [-1.4500177039893056, 0.6630174774356634, -0.7486489922601834]
    assert [z[0, 0, 0], z[3, 1, 1], z[2, 2, 0]] == pytest.approx(expected, rel=1e-13)
    z = normal_block(chunk_stream(7, 0, 1), np.empty((1, 4, 2)))
    expected = [-1.1611426921768373, 0.31091054857838724, -0.36954963946651853]
    assert [z[0, 0, 0], z[0, 3, 1], z[0, 2, 0]] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_tile_by_tile_draws_equal_one_whole_chunk_draw(tile):
    whole = normal_block(chunk_stream(5, 1), np.empty((7, 3, 19)))
    stream, tiles, buffer = chunk_stream(5, 1), np.empty_like(whole), np.empty((tile, 3, 19))
    for lo in range(0, 7, tile):
        drawn = normal_block(stream, buffer[: min(tile, 7 - lo)])
        tiles[lo : lo + tile] = drawn
    assert np.array_equal(tiles, whole)


def test_a_ragged_chunk_draws_the_time_major_block_of_its_own_width(two_currency_model):
    # step j and pair i read position j * pairs + i of each factor's stream,
    # so a ragged chunk's pairs are not a prefix of a full chunk's
    full = normal_block(chunk_stream(99, 2, 1), np.empty((1, 7, 50)))
    ragged = normal_block(chunk_stream(99, 2, 1), np.empty((1, 7, 19)))
    assert np.array_equal(ragged.reshape(-1), full.reshape(-1)[: ragged.size])
    assert not np.array_equal(ragged, full[:, :, :19])
    # the chunk widths follow from n_paths alone: a scenario is a pure function of
    # (model, grid, n_paths, seed), whatever the worker count
    grid = TimeGrid.regular(1.0, 3)
    short, wide = (simulate(two_currency_model, grid, CHUNK_PATHS + n, seed=4, n_workers=2) for n in (38, 100))
    assert np.array_equal(short.paths[:, :, :CHUNK_PATHS], wide.paths[:, :, :CHUNK_PATHS])
    assert not np.array_equal(short.paths[:, 1:, CHUNK_PATHS:], wide.paths[:, 1:, CHUNK_PATHS : CHUNK_PATHS + 38])
    again = simulate(two_currency_model, grid, CHUNK_PATHS + 38, seed=4, n_workers=1)
    assert np.array_equal(short.paths, again.paths)


def test_normals_change_with_seed_path_step_driver():
    base = normal_block(chunk_stream(1, 5), np.empty((3, 2, 1)))
    assert not np.array_equal(base, normal_block(chunk_stream(2, 5), np.empty((3, 2, 1))))
    assert not np.array_equal(base, normal_block(chunk_stream(1, 6), np.empty((3, 2, 1))))
    # each factor of a chunk has its own stream, none a shift of another's
    factors = [normal_block(chunk_stream(1, 5, k), np.empty(6)) for k in range(4)]
    assert len({tuple(z[:3]) for z in factors} | {tuple(z[3:]) for z in factors}) == 8
    assert base.shape == (3, 2, 1)


def test_normals_standard_moments():
    z = normal_block(chunk_stream(123, 0), np.empty((1, 4, 20000))).reshape(-1)
    n = z.size
    assert abs(z.mean()) < 4 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4 / np.sqrt(2 * n)
    assert np.all(np.isfinite(z))


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(xccy.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, xccy; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_package_imports_are_module_level_and_acyclic():
    graph = {}
    for path in Path(xccy.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1}
        nested = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in tree.body]
        assert not nested, f"{path.name} line {nested[0].lineno}: import inside a function"
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on an import cycle
