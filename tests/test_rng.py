import numpy as np
import pytest
from scipy.special import ndtri

from xccy.rng import normal_block


def _reference_normals(seed, path, step, n_steps, n_drivers):
    """Normals of one (path, step) read straight from numpy's Philox.

    Block b sits at counter word0 = (path * n_steps + step) * n_blocks + b;
    numpy pre-increments before its first draw, so it is seeded one below,
    and one below counter 0 is the all-ones counter.
    """
    n_blocks = -(-n_drivers // 4)
    words = []
    for b in range(n_blocks):
        c = (path * n_steps + step) * n_blocks + b
        counter = [2**64 - 1] * 4 if c == 0 else [c - 1, 0, 0, 0]
        bg = np.random.Philox(key=[seed & (2**64 - 1), seed >> 64], counter=counter)
        words.extend(bg.random_raw(4))
    bits = np.array(words[:n_drivers], dtype=np.uint64)
    return ndtri((bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54)


@pytest.mark.parametrize(
    "seed, path, step, n_steps, n_drivers",
    [
        (3, 0, 0, 5, 3),  # counter 0: numpy's counter borrows to all ones
        (12345, 4321, 17, 50, 3),
        ((0xCAFE << 64) | 0xDEADBEEF, 77, 2, 4, 4),
        (99, 250, 3, 4, 6),  # two blocks per (path, step)
    ],
    ids=["counter_zero", "mid_range", "wide_seed", "six_drivers"],
)
def test_normal_block_pins_numpy_philox_at_flat_counter(seed, path, step, n_steps, n_drivers):
    z = normal_block(seed, path, 1, n_steps, n_drivers)
    assert np.array_equal(z[0, step], _reference_normals(seed, path, step, n_steps, n_drivers))


def test_normal_block_known_answer():
    # a change to the counter layout, the key or the uniform map re-rolls every
    # seeded number; it must show up here, not only in statistical tests
    z = normal_block(7, 0, 3, 4, 3)
    expected = [1.2858920077392253, 1.1685692498035793, -0.49999134073936485]
    assert [z[0, 0, 0], z[2, 3, 1], z[1, 2, 2]] == pytest.approx(expected, rel=1e-13)


def test_normals_independent_of_path_blocking():
    full = normal_block(99, 0, 100, n_steps=7, n_drivers=3)
    lo = normal_block(99, 0, 37, n_steps=7, n_drivers=3)
    hi = normal_block(99, 37, 63, n_steps=7, n_drivers=3)
    assert np.array_equal(full, np.concatenate([lo, hi], axis=0))


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
    # no pathological tails from the uniform->normal map
    assert np.all(np.isfinite(z))
