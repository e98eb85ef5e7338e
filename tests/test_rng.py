import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xccy
from xccy.rng import normal_block


def _reference_normals(seed, chunk, count, n_steps, n_drivers):
    """Normals of one chunk read straight from numpy: the ziggurat sampler on
    Philox keyed by the seed (as two 64-bit words) at counter [0, chunk, 0, 0]."""
    bits = np.random.Philox(key=[seed & (2**64 - 1), seed >> 64], counter=[0, chunk, 0, 0])
    return np.random.Generator(bits).standard_normal((count, n_steps, n_drivers))


@pytest.mark.parametrize(
    "seed, chunk, count, n_steps, n_drivers",
    [
        (3, 0, 5, 5, 3),
        (12345, 3, 40, 50, 3),
        ((0xCAFE << 64) | 0xDEADBEEF, 1, 7, 4, 4),
        (99, 2, 30, 4, 6),
    ],
    ids=["counter_zero", "mid_range", "wide_seed", "six_drivers"],
)
def test_normal_block_pins_numpy_philox_at_flat_counter(seed, chunk, count, n_steps, n_drivers):
    z = normal_block(seed, chunk, count, n_steps, n_drivers)
    assert np.array_equal(z, _reference_normals(seed, chunk, count, n_steps, n_drivers))


def test_normal_block_known_answer():
    # a change to the key, the counter or numpy's sampler re-rolls every
    # seeded number; it must show up here, not only in statistical tests
    z = normal_block(7, 0, 3, 4, 3)
    expected = [-1.7496944402112695, -1.0831235446557208, 1.5815935783513093]
    assert [z[0, 0, 0], z[2, 3, 1], z[1, 2, 2]] == pytest.approx(expected, rel=1e-13)


def test_ragged_chunk_is_a_prefix_of_the_full_chunk():
    full = normal_block(99, 2, 100, n_steps=7, n_drivers=3)
    assert np.array_equal(normal_block(99, 2, 37, n_steps=7, n_drivers=3), full[:37])


def test_normals_change_with_seed_path_step_driver():
    base = normal_block(1, 5, 1, 3, 2)
    assert not np.array_equal(base, normal_block(2, 5, 1, 3, 2))
    assert not np.array_equal(base, normal_block(1, 6, 1, 3, 2))
    assert base.shape == (1, 3, 2)


def test_normals_standard_moments():
    z = normal_block(123, 0, 20000, n_steps=1, n_drivers=4).reshape(-1)
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
